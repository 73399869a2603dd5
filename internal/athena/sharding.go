package athena

import (
	"sort"
	"time"

	"athena/internal/object"
	"athena/internal/trace"
)

// This file wires the ShardRouter (shardrouter.go) into the node: the
// retention-driven shard refresh and backfill, where the query path's
// candidate rows come from (rowsFor: the directory's view for owned
// labels, the routed lookup cache's overlay for the rest), and the
// handlers for the two lookup wire messages (a scoped Sync is
// membership.go's, with its scope from syncScope). The pick, the cover,
// delta extraction and the divergence check are the full replica's own
// code, handed rows or a scope predicate.

// shardClient is the sharded-directory component: the router and the
// directory version its ownership view was last derived from. It exists
// only when Config.Shards > 0; without it the node holds a full replica
// and every lookup is local.
type shardClient struct {
	router *ShardRouter
	ver    uint64
	retry  func(any) // Node.shardRetry, bound once

	// rowsFor's overlay scratch, reset per call (callers hold n.mu): the
	// rows of the last lookup-cache result read, and the rows of its
	// sources the view does not hold. What a caller keeps of a row it
	// copies.
	rows []*row
	own  []row
}

// shardRefresh recomputes shard ownership when the directory version moved
// (the membership view is derived from it, mirroring refreshSampler),
// refilters the directory on an ownership change, and backfills shards
// gained since the last refresh from the nearest co-replica — the local
// copies are thin, and only a scoped sync can restore the payloads. The
// first refresh backfills nothing: until then every payload was kept. A
// record this node never heard of is anti-entropy's (maybeSync). Callers
// hold n.mu.
func (n *Node) shardRefresh() {
	sh := n.shard
	if sh == nil {
		return
	}
	v := n.dir.Version()
	if v == sh.ver {
		return
	}
	sh.ver = v
	added, changed := sh.router.Refresh(n.dir.Sources())
	if !changed {
		return
	}
	n.dir.Refilter()
	byPeer := make(map[string][]uint32)
	for _, s := range added {
		if r := sh.router.Nearest(s, n.router); r != "" {
			byPeer[r] = append(byPeer[r], uint32(s))
		}
	}
	peers := make([]string, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, peer := range peers {
		n.sendSync(peer, byPeer[peer])
	}
}

// descriptorOf resolves a source's descriptor from the directory's view,
// falling back to the router's lookup cache for remote sources whose
// records are thin here. Callers hold n.mu.
func (n *Node) descriptorOf(source string) (object.Descriptor, bool) {
	if r := n.dir.View().source(source); r != nil {
		return r.desc, true
	}
	if n.shard != nil {
		return n.shard.router.Desc(source)
	}
	return object.Descriptor{}, false
}

// rowsFor is what sharding adds to source selection: where a label's
// candidate rows come from. The view holds every covering advert when the
// node is unsharded or replicates the label's home shard. Otherwise the
// lookup cache answers (a negative entry, "nobody covers the label",
// answers as cached and empty, and counts as a hit like any other); on a
// miss a routed ShardLookup starts on the query's behalf (the query is
// re-selected once none of its labels has a lookup pending) while the
// view's partial rows — own source, adverts kept for another label in an
// owned shard — serve best-effort meanwhile. A lookup-cache result is an
// overlay of rows, in the shard client's scratch until the next one: a
// source the view holds is its row there, any other the descriptor its
// lookup reply brought, which the router keeps while a cache entry names
// the source (every cached source has one). Callers hold n.mu.
func (n *Node) rowsFor(v *View, queryID, label string) []*row {
	sh := n.shard
	if sh == nil || sh.router.OwnsLabel(label) {
		return v.cover(label)
	}
	srcs, ok := sh.router.CachedSources(label, n.now())
	if !ok {
		n.startShardLookup(label, queryID)
		return v.cover(label)
	}
	n.stats.ShardLookupHits++
	rows, own := sh.rows[:0], sh.own[:0]
	for _, s := range srcs {
		if r := v.source(s); r != nil {
			rows = append(rows, r)
		} else if desc, ok := sh.router.Desc(s); ok {
			// A grown own leaves earlier rows in the old array, unchanged.
			own = append(own, row{desc: desc, obj: v.objIndex(desc.Name.String())})
			rows = append(rows, &own[len(own)-1])
		}
	}
	sh.rows, sh.own = rows, own
	return rows
}

// selectSources solves the Section III-B coverage problem for a query's
// labels: each label's candidate rows (rowsFor) are gathered into the
// node's pool, each distinct source priced once by its row, and
// coverSources solves the cover over the pool. A full replica's rows are
// its view's; a sharded node's unowned labels read the lookup overlay.
// Only coverSources' result is new: nothing the query keeps points into
// the scratch. Callers hold n.mu.
func (n *Node) selectSources(v *View, queryID string, labels []string) []string {
	coverable, pool := n.coverable[:0], n.pool[:0]
	for _, l := range labels {
		rows := n.rowsFor(v, queryID, l)
		if len(rows) == 0 {
			continue
		}
		coverable = append(coverable, l)
		for _, r := range rows {
			pool = addCandidate(pool, r)
		}
	}
	n.coverable, n.pool = coverable, pool
	return coverSources(coverable, pool)
}

// startShardLookup routes a lookup of an unowned label's home shard to its
// nearest replica, one in flight per shard (Begin), with a retry timer
// that walks the replica set nearest first. Callers hold n.mu.
func (n *Node) startShardLookup(label, queryID string) {
	msg, p := n.shard.router.Begin(label, queryID, n.router)
	if p == nil {
		return
	}
	n.stats.ShardLookups++
	if n.trace.On() {
		p.started = n.now()
	}
	n.sendCtl(msg.To, msg)
	n.timers.AfterArg(shardRetryPeriods*n.member.interval, n.shard.retry, p)
}

// shardRetry fires shardRetryPeriods protocol periods after lookup arg (a
// *pendingShardLookup) was sent: a lookup still unanswered is re-sent to
// the next replica of its try order and the timer re-armed; one that
// runs out of tries hands its waiters back; an answered one is done. It is
// bound once per node as shardClient.retry, so arming it builds nothing.
func (n *Node) shardRetry(arg any) {
	p := arg.(*pendingShardLookup)
	n.mu.Lock()
	defer n.mu.Unlock()
	msg, abandoned := n.shard.router.Retry(p.nonce)
	if msg == nil {
		for _, id := range abandoned {
			n.trace.Span(n.id, id, trace.Lookup, p.started, n.now(), "abandoned")
		}
		n.resumeSettled(abandoned)
		return
	}
	n.stats.ShardReroutes++
	n.sendCtl(msg.To, msg)
	n.timers.AfterArg(shardRetryPeriods*n.member.interval, n.shard.retry, p)
}

// shardRetryPeriods is how many protocol periods a lookup waits for its
// reply before it is re-sent, and how long an empty reply is believed.
const shardRetryPeriods = 2

// shardOnSourceDown reacts to an eviction or withdrawal: cached lookup
// results naming the source are invalidated, pending lookups targeting it
// are re-routed to the next replica, and the waiters of a lookup left with
// no replica are handed back. Callers hold n.mu.
func (n *Node) shardOnSourceDown(src string) {
	if n.shard == nil {
		return
	}
	resend, abandoned := n.shard.router.SourceDown(src)
	for _, msg := range resend {
		n.stats.ShardReroutes++
		n.sendCtl(msg.To, msg)
	}
	n.resumeSettled(abandoned)
}

// resumeSettled re-selects and pumps the queries among ids that no longer
// wait on any lookup: a lookup they waited on left the pending table
// without an answer. Callers hold n.mu.
func (n *Node) resumeSettled(ids []string) {
	for _, id := range ids {
		if q, live := n.queries[id]; live && n.reselectIfSettled(q) {
			n.pump(q)
		}
	}
}

// reselectIfSettled re-solves q's source selection when none of its labels
// has a lookup pending any more, so the cover runs once over complete
// candidates rather than once per reply. It reports whether q is settled.
// Callers hold n.mu.
func (n *Node) reselectIfSettled(q *localQuery) bool {
	labels := q.engine.Labels()
	if n.shard.router.AnyPending(labels) {
		return false
	}
	if n.choices.sel == selectCover {
		n.stats.ShardReselects++
		q.selected = n.selectSources(n.dir.View(), q.engine.ID(), labels)
	}
	return true
}

// handleShardLookup serves a routed shard lookup from the local directory
// (this replica owns the shard; the index holds every covering advert):
// the shard's labels and their adverts, the listing made once per shard
// and view (ShardRouter.Listing). A stale view at the requester just gets
// whatever this replica has — the requester's retry walks on. Callers hold
// n.mu.
func (n *Node) handleShardLookup(m *ShardLookup) {
	n.stats.ShardServed++
	labels, adverts := n.shard.router.Listing(n.dir.View(), int(m.Shard))
	n.sendCtl(m.From, &ShardLookupReply{
		From:    n.id,
		To:      m.From,
		Nonce:   m.Nonce,
		Labels:  labels,
		Adverts: adverts,
	})
}

// handleShardLookupReply completes a pending lookup: the shard's labels are
// cached, and every query that was waiting pumps, so a label whose
// candidates just arrived is fetched at once. A waiting query is
// re-selected only when this was its last pending lookup: until then it
// pumps by the cover QueryInit computed over a partial view. A refused
// reply is counted. Callers hold n.mu.
func (n *Node) handleShardLookupReply(m *ShardLookupReply) {
	sr := n.shard.router
	var started time.Time
	if n.trace.On() {
		started, _ = sr.Started(m.Nonce)
	}
	ids, ok := sr.Complete(m.Nonce, m.Labels, m.Adverts, n.now().Add(shardRetryPeriods*n.member.interval))
	if !ok {
		n.stats.ShardRepliesDropped++
		return
	}
	for _, id := range ids {
		n.trace.Span(n.id, id, trace.Lookup, started, n.now(), m.From)
		q, live := n.queries[id]
		if !live {
			continue
		}
		n.reselectIfSettled(q)
		n.pump(q)
	}
}

// ShardingEnabled reports whether the sharded directory is on.
func (n *Node) ShardingEnabled() bool { return n.shard != nil }

// ShardInfo summarizes the node's shard state for /statusz.
type ShardInfo struct {
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// Replicas is the per-shard replication factor.
	Replicas int `json:"replicas"`
	// Owned lists the shards this node currently replicates.
	Owned []int `json:"owned"`
	// EntriesHeld counts directory records whose payload is held locally.
	EntriesHeld int `json:"entries_held"`
	// CacheLen counts cached remote lookup results.
	CacheLen int `json:"cache_len"`
	// Lookups / Served count routed lookups issued and answered here.
	Lookups int `json:"lookups"`
	Served  int `json:"served"`
	// Reselects counts queries re-selected once their lookups settled.
	Reselects int `json:"reselects"`
}

// ShardInfo returns the node's shard state; ok is false when sharding is
// disabled.
func (n *Node) ShardInfo() (ShardInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shard == nil {
		return ShardInfo{}, false
	}
	sr := n.shard.router
	return ShardInfo{
		Shards:      sr.smap.Shards(),
		Replicas:    sr.rf,
		Owned:       sr.OwnedShards(),
		EntriesHeld: n.dir.EntriesHeld(),
		CacheLen:    sr.CacheLen(),
		Lookups:     n.stats.ShardLookups,
		Served:      n.stats.ShardServed,
		Reselects:   n.stats.ShardReselects,
	}, true
}
