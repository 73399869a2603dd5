// Package shard partitions the hierarchical namespace into a fixed number
// of shards and assigns each shard a replica set drawn from the live
// membership view. The partition key of an advertisement is the leading
// prefix of its name (names.Name.Prefix); flat keys such as coverage labels
// hash directly. Replica sets use rendezvous (highest-random-weight)
// hashing, so the assignment is a pure function of (shard, view, rf):
// every node that agrees on the membership view agrees on ownership, and
// removing one node from the view moves only that node's shards.
package shard

import "athena/internal/names"

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

// Map is the prefix→shard partition: a fixed shard count plus the prefix
// depth that forms the partition key. It is immutable and safe for
// concurrent use.
type Map struct {
	shards int
	depth  int
}

// DefaultPrefixDepth is the partition-key depth used when none is given:
// two leading components ("/grid/cam") balance fan-out against locality in
// the paper's namespaces.
const DefaultPrefixDepth = 2

// NewMap builds a partition over the given shard count. shards < 1 is
// clamped to 1; depth < 1 takes DefaultPrefixDepth.
func NewMap(shards, depth int) *Map {
	if shards < 1 {
		shards = 1
	}
	if depth < 1 {
		depth = DefaultPrefixDepth
	}
	return &Map{shards: shards, depth: depth}
}

// Shards returns the shard count.
func (m *Map) Shards() int { return m.shards }

// Depth returns the partition-key prefix depth.
func (m *Map) Depth() int { return m.depth }

// OfName returns the shard owning a hierarchical name: the hash of the
// name's leading-prefix key reduced modulo the shard count. Every name
// under the same prefix lands on the same shard, so prefix-local
// advertisement bursts stay within one replica set.
func (m *Map) OfName(n names.Name) int {
	return m.OfKey(n.Prefix(m.depth).String())
}

// OfKey returns the shard owning a flat key (a coverage label or a source
// id — anything without name structure).
func (m *Map) OfKey(key string) int {
	return int(fnvString(fnvOffset, key) % uint64(m.shards))
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
// ranks after all of a full ranking is ignored.
func rankIn(ids []string, ws []uint64, id string, w uint64) ([]string, []uint64) {
	i := len(ids)
	for i > 0 && (w > ws[i-1] || (w == ws[i-1] && id < ids[i-1])) {
		i--
	}
	if i >= cap(ids) {
		return ids, ws
	}
	if len(ids) < cap(ids) {
		ids, ws = append(ids, ""), append(ws, 0)
	}
	copy(ids[i+1:], ids[i:])
	copy(ws[i+1:], ws[i:])
	ids[i], ws[i] = id, w
	return ids, ws
}

// Owns reports whether node is in shard s's replica set under the given
// view: node's weight ranks within the top rf. It avoids materializing the
// full ranking.
func (m *Map) Owns(node string, s int, view []string, rf int) bool {
	if rf <= 0 {
		return false
	}
	base := shardBase(s)
	nw := weightFrom(base, node)
	seen := false
	higher := 0
	for _, id := range view {
		if id == node {
			seen = true
			continue
		}
		w := weightFrom(base, id)
		if w > nw || (w == nw && id < node) {
			higher++
			if higher >= rf {
				return false
			}
		}
	}
	return seen
}

// OwnedBy returns the sorted set of shards whose replica set includes node
// under the given view.
func (m *Map) OwnedBy(node string, view []string, rf int) []int {
	var out []int
	for s := 0; s < m.shards; s++ {
		if m.Owns(node, s, view, rf) {
			out = append(out, s)
		}
	}
	return out
}
