package athena

import (
	"sort"

	"athena/internal/cover"
	"athena/internal/object"
)

// This file wires the ShardRouter (shardrouter.go) into the node: the
// retention-driven shard refresh and backfill, the query-path wrappers
// that resolve owned labels from the local directory and route the rest,
// and the handlers for the four shard wire messages. Everything here is
// inert unless Config.Shards > 0.

// shardRefresh recomputes shard ownership when the directory version moved
// (the membership view is derived from it, mirroring refreshSampler),
// refilters the directory on an ownership change, and backfills newly
// owned shards from a standing co-replica — the local copies are thin, and
// only a scoped sync can restore the payloads. Callers hold n.mu.
func (n *Node) shardRefresh() {
	if !n.shardOn {
		return
	}
	v := n.dir.Version()
	if v == n.shardVer {
		return
	}
	n.shardVer = v
	added, changed := n.shardRouter.Refresh(n.dir.Sources())
	if !changed {
		return
	}
	n.dir.Refilter()
	byPeer := make(map[string][]uint32)
	for _, s := range added {
		for _, r := range n.shardRouter.Replicas(s) {
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
		shards := byPeer[peer]
		req := &ShardSyncRequest{
			From:   n.id,
			To:     peer,
			Shards: shards,
			Seqs:   n.dir.SeqVectorScoped(n.shardRouter.InShards(shards)),
		}
		n.sendCtl(peer, req.WireSize(), req)
	}
}

// descriptorOf resolves a source's descriptor from the local directory,
// falling back to the router's lookup cache for remote sources whose
// records are thin here. Callers hold n.mu.
func (n *Node) descriptorOf(source string) (object.Descriptor, bool) {
	if desc, ok := n.dir.Descriptor(source); ok {
		return desc, true
	}
	if n.shardOn {
		return n.shardRouter.Desc(source)
	}
	return object.Descriptor{}, false
}

// selectSources is the sharded counterpart of Directory.SelectSources: the
// local directory is authoritative for labels whose home shard this node
// replicates, unowned labels resolve from the lookup cache, and cache
// misses start a routed ShardLookup on behalf of the query (whose selected
// set is recomputed when the reply lands). The greedy set cover then runs
// over the combined candidate pool. Callers hold n.mu.
func (n *Node) selectSources(queryID string, labels []string) []string {
	if !n.shardOn {
		return n.dir.SelectSources(labels)
	}
	candidateSet := make(map[string]bool)
	coverable := make([]string, 0, len(labels))
	for _, l := range labels {
		var srcs []string
		if n.shardRouter.OwnsLabel(l) {
			srcs = n.dir.SourcesFor(l)
		} else if cached, ok := n.shardRouter.CachedSources(l); ok {
			n.stats.ShardLookupHits++
			srcs = cached
		} else {
			n.startShardLookup(l, queryID)
			// Best-effort until the reply lands: whatever partial view the
			// local directory holds (own source, name-shard overlap).
			srcs = n.dir.SourcesFor(l)
		}
		if len(srcs) == 0 {
			continue
		}
		coverable = append(coverable, l)
		for _, s := range srcs {
			candidateSet[s] = true
		}
	}
	if len(coverable) == 0 {
		return nil
	}
	candidates := make([]string, 0, len(candidateSet))
	for s := range candidateSet {
		candidates = append(candidates, s)
	}
	sort.Strings(candidates)

	wanted := make(map[string]bool, len(coverable))
	for _, l := range coverable {
		wanted[l] = true
	}
	sources := make([]cover.Source, 0, len(candidates))
	for _, s := range candidates {
		desc, ok := n.descriptorOf(s)
		if !ok {
			continue
		}
		covers := make([]string, 0, len(desc.Labels))
		for _, l := range desc.Labels {
			if wanted[l] {
				covers = append(covers, l)
			}
		}
		sources = append(sources, cover.Source{ID: s, Cost: float64(desc.Size), Covers: covers})
	}
	picked, err := cover.Greedy(coverable, sources)
	if err != nil {
		// A candidate's descriptor went away between indexing and pricing;
		// fall back to the whole pool rather than dropping coverage.
		out := make([]string, len(sources))
		for i := range sources {
			out[i] = sources[i].ID
		}
		return out
	}
	out := make([]string, len(picked))
	for i, idx := range picked {
		out[i] = sources[idx].ID
	}
	sort.Strings(out)
	return out
}

// sourcesForLabel is the sharded counterpart of Directory.SourcesFor for
// the cmp scheme's fan-out-to-everyone retrieval. Callers hold n.mu.
func (n *Node) sourcesForLabel(q *localQuery, label string) []string {
	if !n.shardOn || n.shardRouter.OwnsLabel(label) {
		return n.dir.SourcesFor(label)
	}
	if cached, ok := n.shardRouter.CachedSources(label); ok {
		n.stats.ShardLookupHits++
		return cached
	}
	n.startShardLookup(label, q.engine.ID())
	return n.dir.SourcesFor(label)
}

// sourceForRouted resolves an unowned label from the lookup cache with the
// same preference rules as Directory.SourceForLabelExcluding: the query's
// selected set first, then any covering source; cheapest descriptor wins,
// ties to the smaller id; suspects are steered around when an alternative
// exists. A cache miss starts a routed lookup and falls back to the local
// directory's partial view. Callers hold n.mu.
func (n *Node) sourceForRouted(q *localQuery, label string) string {
	srcs, ok := n.shardRouter.CachedSources(label)
	if !ok {
		n.startShardLookup(label, q.engine.ID())
		if len(q.suspect) > 0 {
			if s := n.dir.SourceForLabelExcluding(label, q.selected, q.suspect); s != "" {
				return s
			}
		}
		return n.dir.SourceForLabel(label, q.selected)
	}
	n.stats.ShardLookupHits++
	prefSet := make(map[string]bool, len(q.selected))
	for _, p := range q.selected {
		prefSet[p] = true
	}
	pick := func(exclude map[string]bool) string {
		best := ""
		var bestSize int64
		consider := func(s string) {
			if exclude[s] {
				return
			}
			desc, have := n.descriptorOf(s)
			if !have {
				return
			}
			if best == "" || desc.Size < bestSize || (desc.Size == bestSize && s < best) {
				best, bestSize = s, desc.Size
			}
		}
		for _, s := range srcs {
			if prefSet[s] {
				consider(s)
			}
		}
		if best != "" {
			return best
		}
		for _, s := range srcs {
			consider(s)
		}
		return best
	}
	if len(q.suspect) > 0 {
		if s := pick(q.suspect); s != "" {
			return s
		}
	}
	return pick(nil)
}

// startShardLookup routes a lookup for an unowned label to its home
// shard's primary, deduplicated per label, with a retry timer that walks
// the replica set. Callers hold n.mu.
func (n *Node) startShardLookup(label, queryID string) {
	msg, ok := n.shardRouter.Begin(label, queryID)
	if !ok {
		return
	}
	n.stats.ShardLookups++
	n.sendCtl(msg.To, msg.WireSize(), msg)
	n.armShardRetry(msg.Nonce)
}

// armShardRetry re-sends a still-unanswered lookup to the next replica in
// rendezvous order after two protocol periods. Callers hold n.mu.
func (n *Node) armShardRetry(nonce uint64) {
	n.timers.After(2*n.hbInterval, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		msg, ok := n.shardRouter.Retry(nonce)
		if !ok {
			return
		}
		n.stats.ShardReroutes++
		n.sendCtl(msg.To, msg.WireSize(), msg)
		n.armShardRetry(nonce)
	})
}

// shardOnSourceDown reacts to an eviction or withdrawal: cached lookup
// results naming the source are invalidated and pending lookups targeting
// it are re-routed to the next replica. Callers hold n.mu.
func (n *Node) shardOnSourceDown(src string) {
	if !n.shardOn {
		return
	}
	for _, msg := range n.shardRouter.SourceDown(src) {
		n.stats.ShardReroutes++
		n.sendCtl(msg.To, msg.WireSize(), msg)
	}
}

// handleShardLookup serves a routed label lookup from the local directory
// (this replica owns the label's home shard; the index holds every
// covering advert). A stale view at the requester just gets whatever this
// replica has — the requester's retry walks on. Callers hold n.mu.
func (n *Node) handleShardLookup(from string, m *ShardLookup) {
	if !n.shardOn {
		return
	}
	if m.To != n.id {
		n.sendCtl(m.To, m.WireSize(), m)
		return
	}
	n.stats.ShardServed++
	reply := &ShardLookupReply{
		From:    n.id,
		To:      m.From,
		Label:   m.Label,
		Shard:   m.Shard,
		Nonce:   m.Nonce,
		Adverts: n.dir.AdvertsFor(m.Label),
	}
	n.sendCtl(m.From, reply.WireSize(), reply)
}

// handleShardLookupReply completes a pending lookup: the result is cached,
// and every query that was waiting re-selects its sources and pumps.
// Callers hold n.mu.
func (n *Node) handleShardLookupReply(from string, m *ShardLookupReply) {
	if !n.shardOn {
		return
	}
	if m.To != n.id {
		n.sendCtl(m.To, m.WireSize(), m)
		return
	}
	ids, ok := n.shardRouter.Complete(m.Nonce, m.Adverts)
	if !ok {
		return
	}
	for _, id := range ids {
		q, live := n.queries[id]
		if !live {
			continue
		}
		if n.scheme != SchemeCMP {
			q.selected = n.selectSources(id, q.engine.Labels())
		}
		n.pump(q)
	}
}

// handleShardSyncRequest answers a scoped anti-entropy request with the
// delta this replica holds within the requested shards, plus its own
// scoped vector for the push-back half. Callers hold n.mu.
func (n *Node) handleShardSyncRequest(from string, req *ShardSyncRequest) {
	if !n.shardOn {
		return
	}
	if req.To != n.id {
		n.sendCtl(req.To, req.WireSize(), req)
		return
	}
	include := n.shardRouter.InShards(req.Shards)
	resp := &ShardSyncResponse{
		From:    n.id,
		To:      req.From,
		Shards:  req.Shards,
		Adverts: n.dir.DeltaScoped(req.Seqs, include),
		Seqs:    n.dir.SeqVectorScoped(include),
	}
	n.sendCtl(req.From, resp.WireSize(), resp)
}

// handleShardSyncResponse applies the pull half of a scoped sync and
// pushes back whatever the responder's scoped vector shows it is still
// missing — both replicas end at the union of their records within the
// exchanged shards. Callers hold n.mu.
func (n *Node) handleShardSyncResponse(from string, resp *ShardSyncResponse) {
	if !n.shardOn {
		return
	}
	if resp.To != n.id {
		n.sendCtl(resp.To, resp.WireSize(), resp)
		return
	}
	n.applyAdverts(resp.Adverts, "")
	if len(resp.Seqs) > 0 {
		if push := n.dir.DeltaScoped(resp.Seqs, n.shardRouter.InShards(resp.Shards)); len(push) > 0 {
			g := &AdvertGossip{To: resp.From, Adverts: push}
			n.sendCtl(resp.From, g.WireSize(), g)
		}
	}
}

// ShardingEnabled reports whether the sharded directory is on.
func (n *Node) ShardingEnabled() bool { return n.shardOn }

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
}

// ShardInfo returns the node's shard state; ok is false when sharding is
// disabled.
func (n *Node) ShardInfo() (ShardInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.shardOn {
		return ShardInfo{}, false
	}
	return ShardInfo{
		Shards:      n.shardRouter.smap.Shards(),
		Replicas:    n.shardRouter.rf,
		Owned:       n.shardRouter.OwnedShards(),
		EntriesHeld: n.dir.EntriesHeld(),
		CacheLen:    n.shardRouter.CacheLen(),
		Lookups:     n.stats.ShardLookups,
		Served:      n.stats.ShardServed,
	}, true
}
