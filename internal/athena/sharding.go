package athena

import (
	"slices"
	"sort"

	"athena/internal/cover"
	"athena/internal/object"
)

// This file wires the ShardRouter (shardrouter.go) into the node: the
// retention-driven shard refresh and backfill, where the query path's
// candidate sources come from (candidates: the local directory for owned
// labels, the routed lookup cache for the rest), and the handlers for the
// two lookup wire messages (a scoped Sync is membership.go's, with its
// scope from syncScope). Selection, delta extraction and the divergence
// check are the full replica's own code, handed a candidate pool or a scope
// predicate.

// shardClient is the sharded-directory component: the router and the
// directory version its ownership view was last derived from. It exists
// only when Config.Shards > 0; without it the node holds a full replica
// and every lookup is local.
type shardClient struct {
	router *ShardRouter
	ver    uint64
	retry  func(any) // Node.shardRetry, bound once

	// selectSources' scratch, reset per call (callers hold n.mu): the
	// coverable labels, the distinct candidate ids and the priced pool.
	// Nothing that outlives a call points into them — coverSources
	// returns a fresh slice.
	coverable []string
	ids       []string
	pool      []cover.Source
}

// shardRefresh recomputes shard ownership when the directory version moved
// (the membership view is derived from it, mirroring refreshSampler),
// refilters the directory on an ownership change, and backfills newly
// owned shards from a standing co-replica — the local copies are thin, and
// only a scoped sync can restore the payloads. Callers hold n.mu.
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
		for _, r := range sh.router.Replicas(s) {
			if r != n.id {
				byPeer[r] = append(byPeer[r], uint32(s))
				break
			}
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

// descriptorOf resolves a source's descriptor from the local directory,
// falling back to the router's lookup cache for remote sources whose
// records are thin here. Callers hold n.mu.
func (n *Node) descriptorOf(source string) (object.Descriptor, bool) {
	if desc, ok := n.dir.Descriptor(source); ok {
		return desc, true
	}
	if n.shard != nil {
		return n.shard.router.Desc(source)
	}
	return object.Descriptor{}, false
}

// candidates is what sharding adds to source selection: where a label's
// candidate sources come from. The local directory holds every covering
// advert when the node is unsharded or replicates the label's home shard.
// Otherwise the lookup cache answers (a negative entry, "nobody covers the
// label", answers as cached and empty, and counts as a hit like any other);
// on a miss a routed ShardLookup starts on the query's behalf (the query is
// re-selected once none of its labels has a lookup pending) while the
// directory's partial view — own source, name-shard overlap — serves
// best-effort meanwhile. cached reports that srcs is a lookup result, whose
// descriptors descriptorOf resolves; otherwise srcs is nil and the caller
// reads the directory, which lists (SourcesFor, addSourcesFor) and picks
// (SourceForLabelExcluding) under its own lock. Callers hold n.mu.
func (n *Node) candidates(queryID, label string) (srcs []string, cached bool) {
	if n.shard == nil || n.shard.router.OwnsLabel(label) {
		return nil, false
	}
	if srcs, ok := n.shard.router.CachedSources(label, n.now()); ok {
		n.stats.ShardLookupHits++
		return srcs, true
	}
	n.startShardLookup(label, queryID)
	return nil, false
}

// selectSources solves the Section III-B coverage problem for a query's
// labels: Directory.SelectSources on a full replica; on a sharded node the
// same cover over the candidates gathered label by label into the shard
// client's scratch, each distinct one priced once through descriptorOf.
// Callers hold n.mu.
func (n *Node) selectSources(queryID string, labels []string) []string {
	sh := n.shard
	if sh == nil {
		return n.dir.SelectSources(labels)
	}
	coverable, ids := sh.coverable[:0], sh.ids[:0]
	for _, l := range labels {
		var covered bool
		if srcs, cached := n.candidates(queryID, l); cached {
			ids, covered = addDistinct(ids, srcs), len(srcs) > 0
		} else {
			ids, covered = n.dir.addSourcesFor(ids, l)
		}
		if covered {
			coverable = append(coverable, l)
		}
	}
	pool := sh.pool[:0]
	for _, s := range ids {
		// A candidate whose descriptor went away between indexing and
		// pricing just stays out of the pool.
		if desc, ok := n.descriptorOf(s); ok {
			pool = append(pool, cover.Source{ID: s, Cost: float64(desc.Size), Covers: desc.Labels})
		}
	}
	sh.coverable, sh.ids, sh.pool = coverable, ids, pool
	return coverSources(coverable, pool)
}

// pickCached is Directory.SourceForLabelExcluding over a lookup-cache
// result: the same single pass and the same rule (cheapest.offer), with
// descriptorOf pricing the sources the directory holds only thin. Callers
// hold n.mu.
func (n *Node) pickCached(srcs, preferred []string, exclude map[string]bool) string {
	var best cheapest
	for _, s := range srcs {
		if exclude[s] {
			continue
		}
		if desc, ok := n.descriptorOf(s); ok {
			best.offer(s, desc.Size, slices.Contains(preferred, s))
		}
	}
	return best.id
}

// startShardLookup routes a lookup for an unowned label to its home
// shard's primary, deduplicated per label, with a retry timer that walks
// the replica set. Callers hold n.mu.
func (n *Node) startShardLookup(label, queryID string) {
	msg, p := n.shard.router.Begin(label, queryID)
	if p == nil {
		return
	}
	n.stats.ShardLookups++
	n.sendCtl(msg.To, msg)
	n.timers.AfterArg(shardRetryPeriods*n.member.interval, n.shard.retry, p)
}

// shardRetry fires shardRetryPeriods protocol periods after lookup arg (a
// *pendingShardLookup) was sent: a lookup still unanswered is re-sent to
// the next replica in rendezvous order and the timer re-armed; one that
// runs out of tries hands its waiters back; an answered one is done. It is
// bound once per node as shardClient.retry, so arming it builds nothing.
func (n *Node) shardRetry(arg any) {
	p := arg.(*pendingShardLookup)
	n.mu.Lock()
	defer n.mu.Unlock()
	msg, abandoned := n.shard.router.Retry(p.nonce)
	if msg == nil {
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
	if n.scheme != SchemeCMP {
		n.stats.ShardReselects++
		q.selected = n.selectSources(q.engine.ID(), labels)
	}
	return true
}

// handleShardLookup serves a routed label lookup from the local directory
// (this replica owns the label's home shard; the index holds every
// covering advert). A stale view at the requester just gets whatever this
// replica has — the requester's retry walks on. Callers hold n.mu.
func (n *Node) handleShardLookup(m *ShardLookup) {
	n.stats.ShardServed++
	n.sendCtl(m.From, &ShardLookupReply{
		From:    n.id,
		To:      m.From,
		Nonce:   m.Nonce,
		Adverts: n.dir.AdvertsFor(m.Label),
	})
}

// handleShardLookupReply completes a pending lookup: the result is cached,
// and every query that was waiting pumps, so a label whose candidates just
// arrived is fetched at once. A waiting query is re-selected only when this
// was its last pending lookup: until then it pumps by the cover QueryInit
// computed over a partial view. Callers hold n.mu.
func (n *Node) handleShardLookupReply(m *ShardLookupReply) {
	ids, ok := n.shard.router.Complete(m.Nonce, m.Adverts, n.now().Add(shardRetryPeriods*n.member.interval))
	if !ok {
		return
	}
	for _, id := range ids {
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
