package athena

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"athena/internal/boolexpr"
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

// pendingShardLookup tracks one in-flight ShardLookup, one per shard: the
// replica set it can be routed to (rendezvous order, shared: targetsFor),
// the order it tries them in (nearest first, byRoute), the position in that
// order currently tried, the labels of the shard local queries asked for,
// and the local queries waiting on the answer — each sorted and distinct,
// in one inline slot until a second joins (most lookups have one of each).
type pendingShardLookup struct {
	shard   int
	nonce   uint64
	targets []string
	order   [lookupOrderCap]uint8 // indexes into targets, in try order
	next    int
	tries   int
	asked   []string
	waiting []string
	oneAsk  [1]string
	one     [1]string
	// started is when the lookup was first sent, for the node's trace;
	// set by the node only while it traces.
	started time.Time
}

// lookupOrderCap is the most replicas a lookup orders by distance; a
// larger set is tried in rendezvous order.
const lookupOrderCap = 8

// maxRouteHops bounds routeLen's walk, so a router that loops cannot
// hold it.
const maxRouteHops = 64

// target is the replica at position i of the lookup's try order.
func (p *pendingShardLookup) target(i int) string {
	if len(p.targets) > len(p.order) {
		return p.targets[i]
	}
	return p.targets[p.order[i]]
}

// routeLen counts the hops of rt's route from one node to another, a
// NextHop at a time; ok is false when rt cannot give every step.
func routeLen(rt Router, from, to string) (hops int, ok bool) {
	for ; hops <= maxRouteHops; hops++ {
		if from == to {
			return hops, true
		}
		next, err := rt.NextHop(from, to)
		if err != nil {
			return 0, false
		}
		from = next
	}
	return 0, false
}

// byRoute writes into order, one slot per target, the targets' indexes
// nearest first by the length of rt's route from self, ties in the
// targets' (rendezvous) order. When rt cannot give the length of one of
// them — a nil rt, or a StaticRouter asked past its first hop — order is
// the targets' own.
func byRoute(rt Router, self string, targets []string, order []uint8) {
	var hops [lookupOrderCap]int
	known := rt != nil
	for i, t := range targets {
		order[i] = uint8(i)
		if known {
			hops[i], known = routeLen(rt, self, t)
		}
	}
	if !known {
		return
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && hops[order[j]] < hops[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// join adds a label to the lookup's asked labels and a query to its
// waiters, keeping each sorted and distinct ("" joins no query).
func (p *pendingShardLookup) join(label, queryID string) {
	if i, found := slices.BinarySearch(p.asked, label); !found {
		p.asked = slices.Insert(p.asked, i, label)
	}
	if queryID == "" {
		return
	}
	if i, found := slices.BinarySearch(p.waiting, queryID); !found {
		p.waiting = slices.Insert(p.waiting, i, queryID)
	}
}

// asks reports whether a local query asked the lookup for label.
func (p *pendingShardLookup) asks(label string) bool {
	_, found := slices.BinarySearch(p.asked, label)
	return found
}

// waiters returns the ids of the queries waiting on the lookup, sorted.
// The slice is the lookup's own: callers read it once the lookup has left
// the pending table, when nothing joins it any more.
func (p *pendingShardLookup) waiters() []string { return p.waiting }

// shardLookupMaxTries bounds re-sends per pending lookup (cycling through
// the replica set) before the lookup is abandoned; its waiters are handed
// back, and the next query pump starts a fresh one.
const shardLookupMaxTries = 8

// ShardRouter owns the shard map, the label→shard rule (ShardOf),
// the rendezvous assignment of per-shard replica sets from the live
// membership view, the bounded LRU of remote lookup results, and the
// pending-lookup table. It is safe for
// concurrent use; in the canonical lock order it ranks between Node and
// Directory (Node < ShardRouter < Directory).
type ShardRouter struct {
	mu sync.Mutex

	smap    *shard.Map
	regions boolexpr.MetaTable // the labels' regions (ShardOf); read-only
	rf      int
	self    string

	view  atomic.Pointer[shardView]
	place *shard.Placement // replica sets under the view at last Refresh; nil before
	owned []int            // owned shards at last Refresh, sorted; the placement's

	cacheCap int
	stamp    uint64
	cache    map[string]*shardCacheEntry
	descs    map[string]refDesc

	nonce   uint64
	pending map[int]*pendingShardLookup // by shard
	byNonce map[uint64]*pendingShardLookup

	// listView is the directory view the served listings were made from;
	// listings holds, per shard served under it, the labels and covering
	// adverts a lookup of the shard is answered with (Listing).
	listView *View
	listings map[int]shardListing

	// digests[i] folds the records in the scope of owned[i] at directory
	// version digestVer (Digest); nil when ownership changed since.
	// byPeer holds the digests Digest combined from them, by peer, under
	// the current placement. digestRecs is the fold's scratch.
	digests    []uint64
	byPeer     map[string]uint64
	digestVer  uint64
	digestRecs []syncRecord
}

// shardListing is what a replica answers a lookup of one shard with: the
// shard's covered labels, sorted, and every advert covering any of them,
// sorted by source. Both are shared by every reply made from one view and
// never written.
type shardListing struct {
	labels  []string
	adverts []Advertisement
}

// NewShardRouter builds a router for the given node over a fixed shard
// count with the given replication factor and lookup-cache capacity.
// regions gives labels their regions (boolexpr.Meta.Region; nil for none):
// every node of a fleet must be built with the same ones.
func NewShardRouter(self string, shards, rf, cacheCap int, regions boolexpr.MetaTable) *ShardRouter {
	return &ShardRouter{
		smap:     shard.New(shards),
		regions:  regions,
		rf:       rf,
		self:     self,
		cacheCap: cacheCap,
		cache:    make(map[string]*shardCacheEntry),
		descs:    make(map[string]refDesc),
		pending:  make(map[int]*pendingShardLookup),
		byNonce:  make(map[uint64]*pendingShardLookup),
	}
}

// ShardOf is a label's home shard: its region's (shard.Map.OfRegion) when
// the label has one, so a region's labels share a shard and one lookup
// answers them all, and the flat label's hash (OfKey) when not. It is the
// one label→shard rule: retention (inShards), OwnsLabel, Begin, the
// listing a replica serves and the digest all place labels by it. It
// takes no locks (the map and the regions are immutable).
func (sr *ShardRouter) ShardOf(label string) int {
	if r := sr.regions[label].Region; r != 0 {
		return sr.smap.OfRegion(r)
	}
	return sr.smap.OfKey(label)
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
// belongs to a shard set when any coverage label's home shard (ShardOf) is
// in the set, so a label query routes to ONE shard whose owners hold every
// covering advert. It takes no locks.
func (sr *ShardRouter) inShards(set map[int]bool, desc object.Descriptor) bool {
	for _, l := range desc.Labels {
		if set[sr.ShardOf(l)] {
			return true
		}
	}
	return false
}

// Refresh reads shard ownership from the live membership view's placement
// and swaps the retention snapshot. It returns the shards this node gained
// since the last refresh (the caller backfills them from a co-replica;
// the first refresh gains none) and whether ownership
// changed at all (the caller refilters the directory then). Ownership is a
// function of the view: a refresh with the members of the last one (in any
// order) returns (nil, false) without looking anything up.
func (sr *ShardRouter) Refresh(members []string) (added []int, changed bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if !slices.IsSorted(members) {
		members = slices.Clone(members)
		sort.Strings(members)
	}
	first := sr.place == nil
	if !first && slices.Equal(members, sr.place.View()) {
		return nil, false
	}
	sr.place = sr.smap.Placement(members, sr.rf)
	clear(sr.byPeer) // a peer's shared shards are the placement's
	owned := sr.place.Owned(sr.self)
	// Until the first refresh the nil snapshot kept every payload, so no
	// shard can be thin then: the first refresh gains none, and always
	// counts as a change — the caller must refilter even when this node
	// turns out to own nothing.
	for _, s := range owned {
		if _, held := slices.BinarySearch(sr.owned, s); !held && !first {
			added = append(added, s)
		}
	}
	changed = first || !slices.Equal(owned, sr.owned)
	sr.owned = owned
	if changed {
		sr.digests = nil
		ownedSet := make(map[int]bool, len(owned))
		for _, s := range owned {
			ownedSet[s] = true
		}
		sr.view.Store(&shardView{owned: ownedSet})
	}
	return added, changed
}

// replicasLocked is shard s's replica set under the last refreshed view,
// read from its placement; none before the first refresh. The slice is
// shared: callers read it, never write it. Callers hold sr.mu.
func (sr *ShardRouter) replicasLocked(s int) []string {
	if sr.place == nil {
		return nil
	}
	return sr.place.Replicas(s)
}

// OwnsLabel reports whether this node replicates the label's home shard —
// the query path resolves owned labels from the local directory and routes
// the rest.
func (sr *ShardRouter) OwnsLabel(label string) bool {
	v := sr.view.Load()
	return v != nil && v.owned[sr.ShardOf(label)]
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

// Digest is the anti-entropy digest of what a scoped exchange with peer
// can reconcile: the records in the scope of the shards both replicate
// (SharedShards) — present full records and tombstones, as a scoped
// SeqVector lists them — folded per shard and combined over the shared
// ones. It is zero when they share no shard: there is nothing a scoped
// exchange could carry, and maybeSync opens none. Two replicas whose views
// and in-scope records agree compute the same value, whatever else they
// hold, so a record only one of them keeps thin, or one that only the
// piggyback converges, does not trigger an exchange that cannot carry it.
// The per-shard folds are kept until the directory version or the
// ownership moves.
func (sr *ShardRouter) Digest(peer string, dir *Directory) uint64 {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if len(sr.owned) == 0 {
		return 0
	}
	if sr.digests == nil || dir.Version() != sr.digestVer {
		sr.foldDigestsLocked(dir)
	}
	if d, ok := sr.byPeer[peer]; ok {
		return d
	}
	var d uint64
	for i, s := range sr.owned {
		if slices.Contains(sr.replicasLocked(s), peer) {
			d ^= mix64(sr.digests[i] ^ uint64(s)*0x9e3779b97f4a7c15)
		}
	}
	sr.byPeer[peer] = d
	return d
}

// foldDigestsLocked recomputes the per-owned-shard record folds Digest
// combines: each record's hash is XORed into every owned shard whose scope
// holds it (inShards), a tombstone into all of them. Callers hold sr.mu.
func (sr *ShardRouter) foldDigestsLocked(dir *Directory) {
	recs, ver := dir.syncRecords(sr.digestRecs[:0])
	sr.digestRecs = recs
	if cap(sr.digests) < len(sr.owned) {
		sr.digests = make([]uint64, len(sr.owned))
	}
	sr.digests = sr.digests[:len(sr.owned)]
	clear(sr.digests)
	if sr.byPeer == nil {
		sr.byPeer = make(map[string]uint64)
	}
	clear(sr.byPeer)
	var buf [8]int
	for i := range recs {
		r := &recs[i]
		if r.tombstone {
			for j := range sr.digests {
				sr.digests[j] ^= r.hash
			}
			continue
		}
		for _, s := range sr.scopeShards(r.labels, buf[:0]) {
			if j, owned := slices.BinarySearch(sr.owned, s); owned {
				sr.digests[j] ^= r.hash
			}
		}
	}
	sr.digestVer = ver
}

// scopeShards appends to buf the distinct home shards of these labels:
// the shards whose scope holds their advert (inShards' rule), each once.
func (sr *ShardRouter) scopeShards(labels []string, buf []int) []int {
	for _, l := range labels {
		if s := sr.ShardOf(l); !slices.Contains(buf, s) {
			buf = append(buf, s)
		}
	}
	return buf
}

// mix64 is a splitmix64 finalizer: it gives each shard's fold its own
// avalanche before folds are combined, so two shards' records cannot
// cancel out.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
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

// Begin registers a lookup of an unowned label's home shard on behalf of a
// query. The first caller for the shard gets the ShardLookup to send
// (routed to the replica nearest this node by rt's routes, byRoute) and the
// pending record, which its retry timer carries; later callers for any
// label of the shard join it — the label among the asked ones, the query
// among the waiters — while it is in flight: one lookup per shard, however
// many labels and queries wait on it. Both results are nil for a joiner,
// and when the shard's replica set is empty (nobody to ask). rt is asked
// under the router's lock: as on the node's own sends, a Router takes none
// of the node's locks.
func (sr *ShardRouter) Begin(label, queryID string, rt Router) (msg *ShardLookup, p *pendingShardLookup) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	s := sr.ShardOf(label)
	if p, exists := sr.pending[s]; exists {
		p.join(label, queryID)
		return nil, nil
	}
	targets := sr.targetsFor(s)
	if len(targets) == 0 {
		return nil, nil
	}
	sr.nonce++
	p = &pendingShardLookup{
		shard:   s,
		nonce:   sr.nonce,
		targets: targets,
	}
	if len(targets) <= len(p.order) {
		byRoute(rt, sr.self, targets, p.order[:len(targets)])
	}
	p.asked, p.waiting = p.oneAsk[:0], p.one[:0]
	p.join(label, queryID)
	sr.pending[s] = p
	sr.byNonce[p.nonce] = p
	return p.lookup(sr.self), p
}

// targetsFor is shard s's replica set minus this node, in rendezvous
// order: the placement's set itself when this node is not in it (a lookup is
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

// Nearest is the replica of shard s other than this node that is nearest
// by rt's routes (byRoute), "" when there is none.
func (sr *ShardRouter) Nearest(s int, rt Router) string {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	targets := sr.targetsFor(s)
	switch {
	case len(targets) == 0:
		return ""
	case len(targets) > lookupOrderCap:
		return targets[0]
	}
	var order [lookupOrderCap]uint8
	byRoute(rt, sr.self, targets, order[:len(targets)])
	return targets[order[0]]
}

// lookup builds the wire message for the pending lookup's current target.
func (p *pendingShardLookup) lookup(self string) *ShardLookup {
	return &ShardLookup{
		From:  self,
		To:    p.target(p.next),
		Shard: uint32(p.shard),
		Nonce: p.nonce,
	}
}

// Retry advances a still-pending lookup to the next replica of its try
// order (wrapping) and returns the re-routed message. A nil message means
// there is nothing to re-send: the lookup completed in the meantime, or it
// exhausted its tries and was abandoned, and then abandoned lists its
// waiting query ids — the next pump of any of them starts a fresh lookup.
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

// AnyPending reports whether any of the labels was asked of a lookup still
// in flight: a query over them has not yet seen all its candidates. A label
// whose shard is being looked up for other labels is not pending: nothing
// waits on it there.
func (sr *ShardRouter) AnyPending(labels []string) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if len(sr.pending) == 0 {
		return false
	}
	for _, l := range labels {
		if p, ok := sr.pending[sr.ShardOf(l)]; ok && p.asks(l) {
			return true
		}
	}
	return false
}

// Started is when the pending lookup with this nonce was first sent, as
// the node set it while tracing; ok is false when none is pending.
func (sr *ShardRouter) Started(nonce uint64) (at time.Time, ok bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	p, ok := sr.byNonce[nonce]
	if !ok {
		return time.Time{}, false
	}
	return p.started, true
}

// Complete resolves a pending lookup from its reply — the shard's labels
// the replica lists and the adverts covering them — and returns the
// waiting query ids for re-pumping. Every listed label is installed in
// the LRU cache with the sources of the adverts that cover it, so the
// reply fills the cache for the shard's whole region at once; an asked
// label the reply does not list is cached as a negative entry that answers
// until emptyUntil, so a label nobody covers is not re-asked on every
// pump, while one that gains coverage later still is. A reply for no
// pending lookup (stale, or a duplicate), one listing a label outside the
// shard it was asked about or its labels out of order, or one carrying an
// advert whose seq no record may take (seqHoldable: no honest replica
// lists one), is refused: ok is false (the node counts it), and a refused
// reply leaves its lookup pending for the retry to walk on. Neither slice
// is written.
//
// The descriptor table only moves forward: an advert older than the held
// descriptor of its source leaves it be (the source still counts as a
// candidate, priced by what is held), and one equal to it field by field
// is neither parsed nor copied — most replies repeat what the table has.
func (sr *ShardRouter) Complete(nonce uint64, labels []string, adverts []Advertisement, emptyUntil time.Time) (queries []string, ok bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	p, exists := sr.byNonce[nonce]
	if !exists {
		return nil, false
	}
	for i, l := range labels {
		if sr.ShardOf(l) != p.shard || (i > 0 && l <= labels[i-1]) {
			return nil, false
		}
	}
	for i := range adverts {
		if !seqHoldable(adverts[i].Seq, adverts[i].Withdrawn) {
			return nil, false
		}
	}
	sr.dropPendingLocked(p)
	// One pass over the adverts counts each listed label's sources and
	// refreshes the descriptors, a second files the sources in one backing
	// array, label by label: a reply costs its adverts' labels, not labels
	// × adverts.
	var offBuf, endBuf [32]int
	offs, ends := offBuf[:0], endBuf[:0]
	if len(labels) > len(offBuf) {
		offs, ends = make([]int, 0, len(labels)), make([]int, 0, len(labels))
	}
	offs, ends = offs[:len(labels)], ends[:len(labels)]
	clear(offs)
	for i := range adverts {
		a := &adverts[i]
		covers := false
		for _, l := range a.Labels {
			if j, listed := slices.BinarySearch(labels, l); listed {
				offs[j]++
				covers = true
			}
		}
		if !covers {
			continue
		}
		rd, have := sr.descs[a.Source]
		if !have || (a.Seq >= rd.seq && !rd.holds(a)) {
			desc, err := a.Descriptor()
			if err != nil {
				continue
			}
			rd.desc, rd.seq = desc, a.Seq
			sr.descs[a.Source] = rd
		}
	}
	total := 0
	for j, k := range offs {
		offs[j], ends[j] = total, total
		total += k
	}
	all := make([]string, total)
	for i := range adverts {
		a := &adverts[i]
		if _, held := sr.descs[a.Source]; !held {
			continue // its advert did not parse
		}
		for _, l := range a.Labels {
			if j, listed := slices.BinarySearch(labels, l); listed {
				all[ends[j]] = a.Source
				ends[j]++
			}
		}
	}
	for j, l := range labels {
		var sources []string
		if ends[j] > offs[j] {
			sources = all[offs[j]:ends[j]:ends[j]]
			slices.Sort(sources)
			sources = slices.Compact(sources)
		}
		sr.installLocked(l, sources, emptyUntil)
	}
	for _, l := range p.asked {
		if _, listed := slices.BinarySearch(labels, l); !listed {
			sr.installLocked(l, nil, emptyUntil)
		}
	}
	return p.waiters(), true
}

// Listing is what this replica answers a lookup of shard s with, read
// from view v: the shard's labels v covers, sorted, and every advert
// covering any of them, sorted by source. A shard's listing is made at its
// first lookup under a view and shared by every reply made from it.
func (sr *ShardRouter) Listing(v *View, s int) (labels []string, adverts []Advertisement) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if v != sr.listView {
		sr.listView = v
		if sr.listings == nil {
			sr.listings = make(map[int]shardListing)
		}
		clear(sr.listings)
	}
	if sl, ok := sr.listings[s]; ok {
		return sl.labels, sl.adverts
	}
	var sl shardListing
	for i := range v.labels {
		l := v.labels[i].label
		if sr.ShardOf(l) != s {
			continue
		}
		sl.labels = append(sl.labels, l)
		for _, a := range v.AdvertsFor(l) {
			if !slices.ContainsFunc(sl.adverts, func(b Advertisement) bool { return b.Source == a.Source }) {
				sl.adverts = append(sl.adverts, a)
			}
		}
	}
	sortAdverts(sl.adverts)
	sr.listings[s] = sl
	return sl.labels, sl.adverts
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
	delete(sr.pending, p.shard)
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
// replica of their try order. The re-routed messages are returned for the
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

	pend := make([]int, 0, len(sr.pending))
	for s, p := range sr.pending {
		if p.target(p.next) == src {
			pend = append(pend, s)
		}
	}
	slices.Sort(pend)
	for _, s := range pend {
		p := sr.pending[s]
		moved := false
		for step := 1; step < len(p.targets); step++ {
			cand := (p.next + step) % len(p.targets)
			if p.target(cand) != src {
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
