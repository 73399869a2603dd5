package athena

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"athena/internal/object"
	"athena/internal/shard"
)

// This file implements the routing half of the sharded directory
// (Config.Shards > 0): the ShardRouter tracks which shards this node
// replicates under the live membership view, drives the directory's
// retention filter so non-owned advertisement payloads are thinned out,
// caches remote lookup results in a bounded LRU, and manages the pending
// shard lookups the query path issues for labels this node does not own.
// Node-side wiring (handlers, query-path wrappers, backfill) lives in
// sharding.go.

// shardView is the router's lock-free ownership snapshot, swapped
// atomically on every Refresh. Directory.Advertise consults it through
// ShardRouter.Keep while holding the directory lock, and the canonical
// lock order (Node < ShardRouter < Directory) forbids taking the router
// lock there — hence the atomic pointer instead of sr.mu.
type shardView struct {
	owned map[int]bool
}

// shardCacheEntry is one remote lookup result: the sources covering a
// label, stamped for LRU eviction with a logical counter (wall-clock-free,
// so eviction order is deterministic under the simulator). An empty result
// is a negative entry, "nobody covers the label", which answers only until
// emptyUntil: a label that gains coverage is asked again after it.
type shardCacheEntry struct {
	sources    []string
	stamp      uint64
	emptyUntil time.Time
}

// refDesc reference-counts a remote source's descriptor across the cache
// entries that mention it, so descriptorOf keeps working until the last
// entry naming the source is evicted. seq is the advertisement sequence
// number the descriptor came with: a reply carrying an older one leaves
// it be.
type refDesc struct {
	desc object.Descriptor
	seq  uint64
	refs int
}

// pendingShardLookup tracks one in-flight ShardLookup: the replica set it
// can be routed to (rendezvous order — index 0 is the shard's primary and
// the rest is the deterministic re-route order), the target currently
// tried, and the local queries waiting on the answer — sorted and
// distinct, in one inline slot until a second query joins (most lookups
// have one waiter).
type pendingShardLookup struct {
	label   string
	nonce   uint64
	targets []string
	next    int
	tries   int
	waiting []string
	one     [1]string
}

// join adds a query to the lookup's waiters, keeping them sorted and
// distinct.
func (p *pendingShardLookup) join(queryID string) {
	if i, found := slices.BinarySearch(p.waiting, queryID); !found {
		p.waiting = slices.Insert(p.waiting, i, queryID)
	}
}

// waiters returns the ids of the queries waiting on the lookup, sorted.
// The slice is the lookup's own: callers read it once the lookup has left
// the pending table, when nothing joins it any more.
func (p *pendingShardLookup) waiters() []string { return p.waiting }

// shardLookupMaxTries bounds re-sends per pending lookup (cycling through
// the replica set) before the lookup is abandoned; its waiters are handed
// back, and the next query pump starts a fresh one.
const shardLookupMaxTries = 8

// ShardRouter owns the prefix→shard map, the rendezvous assignment of
// per-shard replica sets from the live membership view, the bounded LRU of
// remote lookup results, and the pending-lookup table. It is safe for
// concurrent use; in the canonical lock order it ranks between Node and
// Directory (Node < ShardRouter < Directory).
type ShardRouter struct {
	mu sync.Mutex

	smap *shard.Map
	rf   int
	self string

	view    atomic.Pointer[shardView]
	members []string // live view at last Refresh, sorted
	owned   []int    // owned shards at last Refresh, sorted

	// replicas memoizes shard → replica set under members: placement is a
	// function of the view, so it is computed on first use and cleared when
	// the view changes. At most shards × rf ids. An entry is never written
	// after it is stored — pending lookups and callers under sr.mu share it.
	replicas map[int][]string

	cacheCap int
	stamp    uint64
	cache    map[string]*shardCacheEntry
	descs    map[string]refDesc

	nonce   uint64
	pending map[string]*pendingShardLookup // by label
	byNonce map[uint64]*pendingShardLookup
}

// NewShardRouter builds a router for the given node over a fixed shard
// count with the given replication factor and lookup-cache capacity.
func NewShardRouter(self string, shards, rf, cacheCap int) *ShardRouter {
	return &ShardRouter{
		smap:     shard.NewMap(shards, 0),
		rf:       rf,
		self:     self,
		cacheCap: cacheCap,
		replicas: make(map[int][]string),
		cache:    make(map[string]*shardCacheEntry),
		descs:    make(map[string]refDesc),
		pending:  make(map[string]*pendingShardLookup),
		byNonce:  make(map[uint64]*pendingShardLookup),
	}
}

// Keep is the directory retention filter: keep the full payload when the
// advertisement is this node's own, or when it is in scope of the shards
// replicated here (inShards over the owned set). Called under the
// directory lock; it must take no locks, so it reads the atomic ownership
// snapshot. Before the first Refresh the snapshot is nil and everything is
// kept.
func (sr *ShardRouter) Keep(desc object.Descriptor) bool {
	if desc.Source == sr.self {
		return true
	}
	v := sr.view.Load()
	return v == nil || sr.inShards(v.owned, desc)
}

// inShards is the scope rule of the sharded directory: an advertisement
// belongs to a shard set when its name prefix's shard, or any coverage
// label's home shard, is in the set. Labels hash to a home shard of their
// own so a label query routes to ONE shard whose owners hold every
// covering advert. It takes no locks (the shard map is immutable).
func (sr *ShardRouter) inShards(set map[int]bool, desc object.Descriptor) bool {
	if set[sr.smap.OfName(desc.Name)] {
		return true
	}
	for _, l := range desc.Labels {
		if set[sr.smap.OfKey(l)] {
			return true
		}
	}
	return false
}

// Refresh recomputes shard ownership from the live membership view and
// swaps the retention snapshot. It returns the shards this node gained
// (the caller backfills them from a co-replica) and whether ownership
// changed at all (the caller refilters the directory then). Ownership is a
// function of the view: a refresh with the members of the last one (in any
// order) returns (nil, false) without recomputing anything.
func (sr *ShardRouter) Refresh(members []string) (added []int, changed bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if !slices.IsSorted(members) {
		members = slices.Clone(members)
		sort.Strings(members)
	}
	first := sr.view.Load() == nil
	if !first && slices.Equal(members, sr.members) {
		return nil, false
	}
	sr.members = append(sr.members[:0], members...)
	clear(sr.replicas)

	owned := sr.smap.OwnedBy(sr.self, sr.members, sr.rf)
	prev := make(map[int]bool, len(sr.owned))
	for _, s := range sr.owned {
		prev[s] = true
	}
	ownedSet := make(map[int]bool, len(owned))
	for _, s := range owned {
		ownedSet[s] = true
		if !prev[s] {
			added = append(added, s)
		}
	}
	// The first refresh always counts as a change: until then the nil
	// snapshot kept every payload, and the caller must refilter even when
	// this node turns out to own nothing.
	changed = first || len(added) > 0 || len(owned) != len(sr.owned)
	sr.owned = owned
	if changed {
		sr.view.Store(&shardView{owned: ownedSet})
	}
	return added, changed
}

// replicasLocked is shard s's replica set under the last refreshed view,
// through the memo. The slice is shared: callers read it, never write it.
// Callers hold sr.mu.
func (sr *ShardRouter) replicasLocked(s int) []string {
	reps, ok := sr.replicas[s]
	if !ok {
		reps = sr.smap.Replicas(s, sr.members, sr.rf)
		sr.replicas[s] = reps
	}
	return reps
}

// OwnsLabel reports whether this node replicates the label's home shard —
// the query path resolves owned labels from the local directory and routes
// the rest.
func (sr *ShardRouter) OwnsLabel(label string) bool {
	v := sr.view.Load()
	return v != nil && v.owned[sr.smap.OfKey(label)]
}

// OwnedShards returns the sorted shards this node replicates under the
// last refreshed view.
func (sr *ShardRouter) OwnedShards() []int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return append([]int(nil), sr.owned...)
}

// Replicas returns shard s's replica set under the last refreshed view, in
// rendezvous (descending-weight) order. The result is the caller's own.
func (sr *ShardRouter) Replicas(s int) []string {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return slices.Clone(sr.replicasLocked(s))
}

// SharedShards returns the sorted shard ids both this node and peer
// replicate under the last refreshed view — the scope of an anti-entropy
// exchange between the two.
func (sr *ShardRouter) SharedShards(peer string) []uint32 {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var out []uint32
	for _, s := range sr.owned {
		if slices.Contains(sr.replicasLocked(s), peer) {
			out = append(out, uint32(s))
		}
	}
	return out
}

// InShards returns the scope predicate of a sharded anti-entropy exchange
// (Directory.Delta / SeqVector): inShards over the given set. The
// directory calls it while holding its own lock.
func (sr *ShardRouter) InShards(shards []uint32) func(object.Descriptor) bool {
	set := make(map[int]bool, len(shards))
	for _, s := range shards {
		set[int(s)] = true
	}
	return func(desc object.Descriptor) bool { return sr.inShards(set, desc) }
}

// CachedSources returns the cached remote lookup result for a label,
// touching its LRU stamp on hit. A negative entry answers (nil, true) until
// its emptyUntil, and is a miss from then on.
func (sr *ShardRouter) CachedSources(label string, now time.Time) ([]string, bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	e, ok := sr.cache[label]
	if !ok || (len(e.sources) == 0 && !now.Before(e.emptyUntil)) {
		return nil, false
	}
	sr.stamp++
	e.stamp = sr.stamp
	return e.sources, true
}

// Desc returns a remote source's descriptor learned through a lookup
// reply, while any cache entry still references the source.
func (sr *ShardRouter) Desc(src string) (object.Descriptor, bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if rd, ok := sr.descs[src]; ok {
		return rd.desc, true
	}
	return object.Descriptor{}, false
}

// Begin registers a lookup for an unowned label on behalf of a query. The
// first caller gets the ShardLookup to send (routed to the shard's
// primary) and the pending record, which its retry timer carries; later
// callers for the same label just join the waiters. Both results are nil
// for a joiner, and when the label's replica set is empty (nobody to ask).
func (sr *ShardRouter) Begin(label, queryID string) (msg *ShardLookup, p *pendingShardLookup) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if p, exists := sr.pending[label]; exists {
		if queryID != "" {
			p.join(queryID)
		}
		return nil, nil
	}
	s := sr.smap.OfKey(label)
	targets := sr.targetsFor(s)
	if len(targets) == 0 {
		return nil, nil
	}
	sr.nonce++
	p = &pendingShardLookup{
		label:   label,
		nonce:   sr.nonce,
		targets: targets,
	}
	p.waiting = p.one[:0]
	if queryID != "" {
		p.join(queryID)
	}
	sr.pending[label] = p
	sr.byNonce[p.nonce] = p
	return p.lookup(sr.self), p
}

// targetsFor is shard s's replica set minus this node, in rendezvous
// order: the memoized set itself when this node is not in it (a lookup is
// for a label whose shard is not replicated here), else a filtered copy.
// Either way nothing writes the result again, so a pending lookup may keep
// it across a view change. Callers hold sr.mu.
func (sr *ShardRouter) targetsFor(s int) []string {
	reps := sr.replicasLocked(s)
	if !slices.Contains(reps, sr.self) {
		return reps
	}
	out := make([]string, 0, len(reps)-1)
	for _, r := range reps {
		if r != sr.self {
			out = append(out, r)
		}
	}
	return out
}

// lookup builds the wire message for the pending lookup's current target.
func (p *pendingShardLookup) lookup(self string) *ShardLookup {
	return &ShardLookup{
		From:  self,
		To:    p.targets[p.next],
		Label: p.label,
		Nonce: p.nonce,
	}
}

// Retry advances a still-pending lookup to the next replica (wrapping) and
// returns the re-routed message. A nil message means there is nothing to
// re-send: the lookup completed in the meantime, or it exhausted its tries
// and was abandoned, and then abandoned lists its waiting query ids — the
// next pump of any of them starts a fresh lookup.
func (sr *ShardRouter) Retry(nonce uint64) (msg *ShardLookup, abandoned []string) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	p, exists := sr.byNonce[nonce]
	if !exists {
		return nil, nil
	}
	p.tries++
	if p.tries >= shardLookupMaxTries {
		sr.dropPendingLocked(p)
		return nil, p.waiters()
	}
	p.next = (p.next + 1) % len(p.targets)
	return p.lookup(sr.self), nil
}

// AnyPending reports whether any of the labels still has a lookup in
// flight: a query over them has not yet seen all its candidates.
func (sr *ShardRouter) AnyPending(labels []string) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for _, l := range labels {
		if _, ok := sr.pending[l]; ok {
			return true
		}
	}
	return false
}

// Complete resolves a pending lookup from its reply: the result is
// installed in the LRU cache and the waiting query ids are returned for
// re-pumping. An empty result is cached as a negative entry that answers
// until emptyUntil, so a label nobody covers is not re-asked on every
// pump, while one that gains coverage later still is. ok=false marks a
// stale or duplicate reply.
//
// The descriptor table only moves forward: an advert older than the held
// descriptor of its source leaves it be (the source still counts as a
// candidate, priced by what is held), and one equal to it field by field
// is neither parsed nor copied — most replies repeat what the table has.
func (sr *ShardRouter) Complete(nonce uint64, adverts []Advertisement, emptyUntil time.Time) (queries []string, ok bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	p, exists := sr.byNonce[nonce]
	if !exists {
		return nil, false
	}
	sr.dropPendingLocked(p)
	var sources []string
	if len(adverts) > 0 {
		sources = make([]string, 0, len(adverts))
		for i := range adverts {
			a := &adverts[i]
			rd, have := sr.descs[a.Source]
			if !have || (a.Seq >= rd.seq && !rd.holds(a)) {
				desc, err := a.Descriptor()
				if err != nil {
					continue
				}
				rd.desc, rd.seq = desc, a.Seq
				sr.descs[a.Source] = rd
			}
			sources = append(sources, a.Source)
		}
		sort.Strings(sources)
	}
	sr.installLocked(p.label, sources, emptyUntil)
	return p.waiters(), true
}

// holds reports whether the held descriptor of a's source is the one a
// carries, field by field, at a's seq.
func (rd *refDesc) holds(a *Advertisement) bool {
	d := &rd.desc
	return rd.seq == a.Seq && d.Name.String() == a.Name && d.Size == a.Size &&
		d.Validity == a.Validity && d.ProbTrue == a.ProbTrue && slices.Equal(d.Labels, a.Labels)
}

// dropPendingLocked removes a pending lookup from both indexes. Callers
// hold sr.mu.
func (sr *ShardRouter) dropPendingLocked(p *pendingShardLookup) {
	delete(sr.pending, p.label)
	delete(sr.byNonce, p.nonce)
}

// installLocked inserts a cache entry, evicting the least-recently-touched
// entry when at capacity (min-stamp scan — O(cap), deterministic). An
// entry the label already has — a lapsed negative one, asked again — is
// reused in place, so re-asking a label nobody covers allocates no entry.
// Callers hold sr.mu.
func (sr *ShardRouter) installLocked(label string, sources []string, emptyUntil time.Time) {
	for _, s := range sources {
		rd := sr.descs[s]
		rd.refs++
		sr.descs[s] = rd
	}
	sr.stamp++
	if old, exists := sr.cache[label]; exists {
		sr.releaseLocked(old.sources)
		*old = shardCacheEntry{sources: sources, stamp: sr.stamp, emptyUntil: emptyUntil}
		return
	}
	for len(sr.cache) >= sr.cacheCap && sr.cacheCap > 0 {
		victim, minStamp := "", ^uint64(0)
		for l, e := range sr.cache {
			if e.stamp < minStamp || (e.stamp == minStamp && l < victim) {
				victim, minStamp = l, e.stamp
			}
		}
		sr.releaseLocked(sr.cache[victim].sources)
		delete(sr.cache, victim)
	}
	sr.cache[label] = &shardCacheEntry{sources: sources, stamp: sr.stamp, emptyUntil: emptyUntil}
}

// releaseLocked drops one cache entry's references, deleting descriptors
// nobody mentions anymore. Callers hold sr.mu.
func (sr *ShardRouter) releaseLocked(sources []string) {
	for _, s := range sources {
		if rd, ok := sr.descs[s]; ok {
			rd.refs--
			if rd.refs <= 0 {
				delete(sr.descs, s)
			} else {
				sr.descs[s] = rd
			}
		}
	}
}

// SourceDown reacts to a source's eviction or withdrawal: cache entries
// naming it are invalidated (their labels get re-asked on the next pump),
// and pending lookups currently targeting it are re-routed to the next
// replica in rendezvous order. The re-routed messages are returned for the
// node to send. A lookup with no replica left to try is dropped, and the
// queries that waited on it are returned in abandoned, sorted and each
// once.
func (sr *ShardRouter) SourceDown(src string) (resend []*ShardLookup, abandoned []string) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	labels := make([]string, 0, len(sr.cache))
	for l, e := range sr.cache {
		for _, s := range e.sources {
			if s == src {
				labels = append(labels, l)
				break
			}
		}
	}
	sort.Strings(labels)
	for _, l := range labels {
		sr.releaseLocked(sr.cache[l].sources)
		delete(sr.cache, l)
	}
	delete(sr.descs, src)

	pend := make([]string, 0, len(sr.pending))
	for l, p := range sr.pending {
		if p.targets[p.next] == src {
			pend = append(pend, l)
		}
	}
	sort.Strings(pend)
	for _, l := range pend {
		p := sr.pending[l]
		moved := false
		for step := 1; step < len(p.targets); step++ {
			cand := (p.next + step) % len(p.targets)
			if p.targets[cand] != src {
				p.next = cand
				moved = true
				break
			}
		}
		if !moved {
			sr.dropPendingLocked(p)
			abandoned = append(abandoned, p.waiters()...)
			continue
		}
		resend = append(resend, p.lookup(sr.self))
	}
	slices.Sort(abandoned)
	return resend, slices.Compact(abandoned)
}

// CacheLen returns the number of cached lookup results (for /statusz).
func (sr *ShardRouter) CacheLen() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return len(sr.cache)
}
