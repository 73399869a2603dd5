// Package shard partitions coverage labels into a fixed number of shards
// and assigns each shard a replica set drawn from the live membership
// view. A label's shard is its region's (OfRegion) or the hash of the
// label itself (OfKey). Replica sets use rendezvous (highest-random-weight)
// hashing, so the assignment is a pure function of (shard, view, rf):
// every node that agrees on the membership view agrees on ownership, and
// removing one node from the view moves only that node's shards.
package shard

import (
	"cmp"
	"slices"
	"sync"
)

// FNV-1a, manually inlined so shard lookups stay allocation-free on the
// query hot path (same constants as internal/athena's digest fold).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Map is the key→shard partition over a fixed shard count. It is
// immutable and safe for concurrent use.
type Map struct {
	shards int
}

// New builds a partition over the given shard count. shards < 1 is
// clamped to 1.
func New(shards int) *Map { return &Map{shards: max(shards, 1)} }

// NewMap is New; depth is not read.
//
// Deprecated: ignored; bench/ compiles against it. A shard holds labels,
// not name prefixes: use New.
func NewMap(shards, depth int) *Map { return New(shards) }

// Shards returns the shard count.
func (m *Map) Shards() int { return m.shards }

// OfKey returns the shard owning a flat key (a coverage label or a source
// id — anything without name structure).
func (m *Map) OfKey(key string) int {
	return int(fnvString(fnvOffset, key) % uint64(m.shards))
}

// OfRegion returns the shard owning a region (boolexpr.Meta.Region): the
// hash of the region id's four bytes, so every label of one region lands
// on one shard.
func (m *Map) OfRegion(r uint32) int {
	h := uint64(fnvOffset)
	for k := 0; k < 4; k++ {
		h ^= uint64(r) >> (8 * k) & 0xff
		h *= fnvPrime
	}
	return int(h % uint64(m.shards))
}

// shardBase is the FNV state after shard s's id: the part of a rendezvous
// weight that is the same for every node, so a walk over a view computes
// it once.
func shardBase(s int) uint64 {
	h := uint64(fnvOffset)
	for k := 0; k < 4; k++ {
		h ^= uint64(s) >> (8 * k) & 0xff
		h *= fnvPrime
	}
	return h
}

// weightFrom is the rendezvous score of a (shard, node) pair, from the
// shard's base: the shard id is folded into the FNV stream before the node
// id (so each shard ranks nodes from a different base), and a
// splitmix-style finalizer gives the avalanche FNV lacks — without it,
// small shard ids barely perturb the high bits that decide the ranking.
func weightFrom(base uint64, node string) uint64 {
	h := fnvString(base, node)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Replicas returns shard s's replica set: the rf members of view with the
// highest rendezvous weight, ties broken by node id. The result is sorted
// by descending weight — index 0 is the shard's primary, and the remainder
// is the deterministic re-route order when earlier owners are evicted from
// the view. view need not be sorted and is not modified. rf is clamped to
// len(view). Only the rf best seen so far are kept while the view is
// walked (rankIn), so the cost is one weight per member, and for rf up to 8
// the result is the only allocation.
func (m *Map) Replicas(s int, view []string, rf int) []string {
	if rf > len(view) {
		rf = len(view)
	}
	if rf <= 0 {
		return nil
	}
	var buf [8]uint64
	ids, ws := make([]string, 0, rf), buf[:0]
	if rf > len(buf) {
		ws = make([]uint64, 0, rf)
	}
	base := shardBase(s)
	for _, id := range view {
		ids, ws = rankIn(ids, ws, id, weightFrom(base, id))
	}
	return ids
}

// rankIn inserts (id, w) at its rank among the pairs ids and ws hold in
// parallel — weight descending, then id ascending — keeping at most
// cap(ids) of them: the last one drops off a full ranking, and a pair that
// ranks after all of a full ranking is ignored. An id is a member's name,
// or its index in a sorted view, which orders the same.
func rankIn[T cmp.Ordered](ids []T, ws []uint64, id T, w uint64) ([]T, []uint64) {
	i := len(ids)
	for i > 0 && (w > ws[i-1] || (w == ws[i-1] && id < ids[i-1])) {
		i--
	}
	if i >= cap(ids) {
		return ids, ws
	}
	if len(ids) < cap(ids) {
		var zero T
		ids, ws = append(ids, zero), append(ws, 0)
	}
	copy(ids[i+1:], ids[i:])
	copy(ws[i+1:], ws[i:])
	ids[i], ws[i] = id, w
	return ids, ws
}

// Placement is every shard's replica set under one membership view, for
// one shard count and replication factor: what Replicas gives shard by
// shard, computed once and held in flat arrays, with each member's owned
// shards beside it. It is immutable, so every router in a process that
// agrees on the view shares one (Map.Placement).
type Placement struct {
	shards, rf int
	view       []string // sorted, distinct
	k          int      // replicas per shard: rf clamped to the view
	reps       []string // shard s's replica set at reps[s*k:(s+1)*k]
	start      []int    // member i's shards at owned[start[i]:start[i+1]]
	owned      []int
}

// placementMemoSize bounds the placements kept for reuse. It covers the
// distinct views a simulated fleet's routers hold at once while churn
// spreads (up to 13 on the churning 96-shard dump fleet); a view pushed
// out is only built again, to the same assignment.
const placementMemoSize = 16

// placements is the process's memo, newest first. Its lock is a leaf: a
// placement is built outside it.
var placements struct {
	mu   sync.Mutex
	ring [placementMemoSize]*Placement
}

// Placement returns the replica sets of every shard under view at
// replication factor rf. view need not be sorted and is not modified;
// duplicates count once. The placement is shared: a recent one of an
// equal view, shard count and rf is returned as it is.
func (m *Map) Placement(view []string, rf int) *Placement {
	if !isSet(view) {
		view = slices.Clone(view)
		slices.Sort(view)
		view = slices.Compact(view)
	}
	placements.mu.Lock()
	for _, p := range placements.ring {
		if p != nil && p.shards == m.shards && p.rf == rf && slices.Equal(p.view, view) {
			placements.mu.Unlock()
			return p
		}
	}
	placements.mu.Unlock()
	p := newPlacement(m.shards, rf, view)
	placements.mu.Lock()
	copy(placements.ring[1:], placements.ring[:placementMemoSize-1])
	placements.ring[0] = p
	placements.mu.Unlock()
	return p
}

// isSet reports whether view is sorted with no member twice.
func isSet(view []string) bool {
	for i := 1; i < len(view); i++ {
		if view[i-1] >= view[i] {
			return false
		}
	}
	return true
}

// newPlacement ranks every shard's replicas over a sorted, distinct view:
// one weight per (shard, member), members ranked by their index, which
// orders as their ids do.
func newPlacement(shards, rf int, view []string) *Placement {
	p := &Placement{shards: shards, rf: rf, view: slices.Clone(view), k: max(0, min(rf, len(view)))}
	k := p.k
	p.reps = make([]string, shards*k)
	p.start = make([]int, len(view)+1)
	idx := make([]int32, shards*k)
	ws := make([]uint64, 0, k)
	for s := 0; s < shards; s++ {
		ids, base := idx[s*k:s*k:(s+1)*k], shardBase(s)
		ws = ws[:0]
		for i, id := range p.view {
			ids, ws = rankIn(ids, ws, int32(i), weightFrom(base, id))
		}
		for j, i := range ids {
			p.reps[s*k+j] = p.view[i]
			p.start[i+1]++
		}
	}
	for i := range p.view {
		p.start[i+1] += p.start[i]
	}
	p.owned = make([]int, len(idx))
	fill := slices.Clone(p.start[:len(view)])
	for j, i := range idx {
		p.owned[fill[i]] = j / k
		fill[i]++
	}
	return p
}

// View returns the placement's view, sorted and distinct. It is shared:
// callers read it, never write it.
func (p *Placement) View() []string { return p.view }

// Replicas returns shard s's replica set, in rendezvous order (index 0 is
// the primary), as Map.Replicas gives it. The slice is shared: callers
// read it, never write it.
func (p *Placement) Replicas(s int) []string {
	return p.reps[s*p.k : (s+1)*p.k : (s+1)*p.k]
}

// Owned returns the sorted shards whose replica set includes node; none
// when node is not in the view. The slice is shared: callers read it,
// never write it.
func (p *Placement) Owned(node string) []int {
	i, found := slices.BinarySearch(p.view, node)
	if !found {
		return nil
	}
	return p.owned[p.start[i]:p.start[i+1]:p.start[i+1]]
}
