package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func view(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("athena%03d", i)
	}
	return out
}

// Owns reports whether node is in shard s's replica set under the given
// view: node's weight ranks within the top rf. It scores the view without
// ranking it, which makes it the oracle Replicas and Placement answer to.
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
// under the given view, shard by shard through Owns.
func (m *Map) OwnedBy(node string, view []string, rf int) []int {
	var out []int
	for s := 0; s < m.shards; s++ {
		if m.Owns(node, s, view, rf) {
			out = append(out, s)
		}
	}
	return out
}

func TestOfKeyRange(t *testing.T) {
	m := New(8)
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		s := m.OfKey(fmt.Sprintf("seg-h-%d-%d", i/16, i%16))
		if s < 0 || s >= 8 {
			t.Fatalf("OfKey out of range: %d", s)
		}
		seen[s] = true
	}
	if len(seen) < 8 {
		t.Errorf("256 keys hit only %d of 8 shards", len(seen))
	}
}

func TestReplicasDeterministicAndSized(t *testing.T) {
	m := New(32)
	v := view(20)
	for s := 0; s < 32; s++ {
		r1 := m.Replicas(s, v, 3)
		// Same assignment from a permuted view.
		perm := append([]string(nil), v...)
		for i := range perm {
			j := (i * 7) % len(perm)
			perm[i], perm[j] = perm[j], perm[i]
		}
		r2 := m.Replicas(s, perm, 3)
		if len(r1) != 3 || len(r2) != 3 {
			t.Fatalf("shard %d: replica sizes %d, %d", s, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("shard %d: view order changed assignment: %v vs %v", s, r1, r2)
			}
		}
	}
	// rf clamps to the view size.
	if r := m.Replicas(0, view(2), 5); len(r) != 2 {
		t.Errorf("clamped replicas = %d, want 2", len(r))
	}
	if r := m.Replicas(0, nil, 3); r != nil {
		t.Errorf("empty view replicas = %v, want nil", r)
	}
}

func TestOwnsMatchesReplicas(t *testing.T) {
	m := New(24)
	v := view(12)
	for s := 0; s < 24; s++ {
		set := make(map[string]bool)
		for _, id := range m.Replicas(s, v, 3) {
			set[id] = true
		}
		for _, id := range v {
			if got := m.Owns(id, s, v, 3); got != set[id] {
				t.Errorf("shard %d node %s: Owns = %v, Replicas membership = %v", s, id, got, set[id])
			}
		}
		if m.Owns("stranger", s, v, 3) {
			t.Errorf("shard %d: node outside the view owns it", s)
		}
	}
}

// Rendezvous property: removing one node from the view only reassigns
// shards that node owned; every other shard's replica set is unchanged.
func TestMinimalDisruptionOnRemoval(t *testing.T) {
	m := New(64)
	v := view(16)
	gone := v[5]
	smaller := append(append([]string(nil), v[:5]...), v[6:]...)
	moved := 0
	for s := 0; s < 64; s++ {
		before := m.Replicas(s, v, 3)
		after := m.Replicas(s, smaller, 3)
		hadGone := false
		for _, id := range before {
			if id == gone {
				hadGone = true
			}
		}
		if !hadGone {
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("shard %d not owned by %s changed: %v -> %v", s, gone, before, after)
				}
			}
			continue
		}
		moved++
		// The surviving owners keep their relative order; exactly one new
		// member appears.
		for _, id := range after {
			if id == gone {
				t.Errorf("shard %d still lists evicted node %s", s, gone)
			}
		}
	}
	if moved == 0 {
		t.Error("removed node owned no shards; balance is broken")
	}
}

// Load balance: with shards >> nodes, per-node ownership counts stay within
// a small factor of the mean.
func TestOwnershipBalance(t *testing.T) {
	m := New(128)
	v := view(16)
	const rf = 3
	counts := make(map[string]int)
	for s := 0; s < 128; s++ {
		for _, id := range m.Replicas(s, v, rf) {
			counts[id]++
		}
	}
	mean := float64(128*rf) / 16
	for id, c := range counts {
		if float64(c) > 3*mean || float64(c) < mean/3 {
			t.Errorf("node %s owns %d shards; mean %.1f", id, c, mean)
		}
	}
	// OwnedBy agrees with the per-shard scan.
	for _, id := range v {
		if got := len(m.OwnedBy(id, v, rf)); got != counts[id] {
			t.Errorf("OwnedBy(%s) = %d shards, per-shard scan says %d", id, got, counts[id])
		}
	}
}

func TestNewMapClamps(t *testing.T) {
	m := New(0)
	if m.Shards() != 1 || NewMap(0, 5).Shards() != 1 || NewMap(7, 5).Shards() != 7 {
		t.Errorf("New(0) = %d shards; NewMap(0, 5) %d, NewMap(7, 5) %d", m.Shards(), NewMap(0, 5).Shards(), NewMap(7, 5).Shards())
	}
	if s := m.OfKey("anything"); s != 0 {
		t.Errorf("single-shard OfKey = %d", s)
	}
}

// fullRanking is Replicas as it was written before the top-rf insertion,
// kept as the reference: score the whole view, sort it by weight
// descending then id ascending, take the first rf.
func fullRanking(view []string, rf int, weight func(string) uint64) []string {
	if rf > len(view) {
		rf = len(view)
	}
	if rf <= 0 {
		return nil
	}
	type scored struct {
		id string
		w  uint64
	}
	all := make([]scored, len(view))
	for i, id := range view {
		all[i] = scored{id: id, w: weight(id)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].id < all[j].id
	})
	out := make([]string, rf)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

// Keeping the rf best while the view is walked gives the prefix of the
// full ranking: for shuffled views of 0 to 40 members, a member listed
// twice now and then, and rf from 0 through 1, the stack buffer's 8 and 9
// to past the view's length. Two 64-bit rendezvous weights do not tie, so
// the tie rule (the smaller id first) is checked on the ranking itself,
// with weights drawn from three values.
func TestReplicasMatchesFullRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := New(64)
	for c := 0; c < 2000; c++ {
		v := view(rng.Intn(41))
		if len(v) > 0 && rng.Intn(4) == 0 {
			v = append(v, v[rng.Intn(len(v))])
		}
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		rf := []int{-1, 0, 1, 2, 3, 8, 9, len(v), len(v) + 3}[rng.Intn(9)]
		s := rng.Intn(64)
		before := slices.Clone(v)

		want := fullRanking(v, rf, func(id string) uint64 { return weightFrom(shardBase(s), id) })
		if got := m.Replicas(s, v, rf); !slices.Equal(got, want) {
			t.Fatalf("case %d: Replicas(%d, %d members, rf %d) = %v, full ranking %v", c, s, len(v), rf, got, want)
		}
		if !slices.Equal(v, before) {
			t.Fatalf("case %d: Replicas reordered the view", c)
		}

		tied := make(map[string]uint64, len(v))
		for _, id := range v {
			tied[id] = uint64(rng.Intn(3))
		}
		if rf = min(rf, len(v)); rf <= 0 {
			continue
		}
		ids, ws := make([]string, 0, rf), make([]uint64, 0, rf)
		for _, id := range v {
			ids, ws = rankIn(ids, ws, id, tied[id])
		}
		if want := fullRanking(v, rf, func(id string) uint64 { return tied[id] }); !slices.Equal(ids, want) {
			t.Fatalf("case %d: top %d of %d members under tied weights = %v, full ranking %v", c, rf, len(v), ids, want)
		}
	}
}

// A replica set costs its result: the weights of an rf up to 8 are ranked
// on the stack, and nothing is boxed or reflect-sorted.
func TestReplicasAllocatesOnlyResult(t *testing.T) {
	m, v := New(64), view(81)
	if allocs := testing.AllocsPerRun(50, func() { m.Replicas(7, v, 3) }); allocs > 1 {
		t.Errorf("Replicas allocates %.0f times, want 1 (the result)", allocs)
	}
}

// A placement is Replicas and Owns shard by shard: on random views (shuffled,
// a member now and then listed twice), shard counts and rf from 0 to past
// the view, every shard's replica set is Map.Replicas over the distinct
// view, and every member's owned shards are those Owns grants, with
// OwnedBy's order. A stranger owns nothing.
func TestPlacementMatchesReplicasAndOwns(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for c := 0; c < 300; c++ {
		m := New(1 + rng.Intn(70))
		v := view(rng.Intn(30))
		if len(v) > 0 && rng.Intn(4) == 0 {
			v = append(v, v[rng.Intn(len(v))])
		}
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		rf := []int{-1, 0, 1, 2, 3, 8, 9, len(v), len(v) + 3}[rng.Intn(9)]
		before := slices.Clone(v)
		p := m.Placement(v, rf)
		if !slices.Equal(v, before) {
			t.Fatalf("case %d: Placement reordered the view", c)
		}
		distinct := slices.Clone(v)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		if !slices.Equal(p.View(), distinct) {
			t.Fatalf("case %d: View() = %v, want %v", c, p.View(), distinct)
		}
		for s := 0; s < m.Shards(); s++ {
			if got, want := p.Replicas(s), m.Replicas(s, distinct, rf); !slices.Equal(got, want) {
				t.Fatalf("case %d: Replicas(%d) = %v, Map.Replicas %v (view %d, rf %d)", c, s, got, want, len(distinct), rf)
			}
		}
		for _, id := range append(distinct, "stranger") {
			if got, want := p.Owned(id), m.OwnedBy(id, distinct, rf); !slices.Equal(got, want) {
				t.Fatalf("case %d: Owned(%s) = %v, OwnedBy %v (view %d, rf %d)", c, id, got, want, len(distinct), rf)
			}
		}
	}
}

// Equal views held in different slices, in any order, share one placement;
// another shard count or rf is another placement; and the memo keeps at
// most placementMemoSize of them, so a view placementMemoSize newer ones
// pushed out is built again, to the same assignment.
func TestPlacementSharedAndBounded(t *testing.T) {
	m := New(40)
	v := view(12)
	p := m.Placement(v, 3)
	shuffled := slices.Clone(v)
	slices.Reverse(shuffled)
	if q := m.Placement(shuffled, 3); q != p {
		t.Fatal("an equal view in another slice built a second placement")
	}
	if m.Placement(v, 2) == p || New(41).Placement(v, 3) == p {
		t.Fatal("another rf or shard count shares the placement")
	}
	if New(40).Placement(v, 3) != p {
		t.Fatal("the prefix depth is not part of placement")
	}
	for i := 0; i < placementMemoSize; i++ {
		m.Placement(view(20+i), 3)
	}
	if q := m.Placement(v, 3); q == p || !slices.Equal(q.Owned("athena003"), p.Owned("athena003")) {
		t.Fatal("the evicted view came back as the old placement, or as another assignment")
	}
}

// Routers on many goroutines look placements up while others build them:
// every caller gets the assignment of its view (run it under -race).
func TestPlacementConcurrent(t *testing.T) {
	m := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := view(5 + (i+g)%12)
				p := m.Placement(v, 3)
				if s := i % 64; !slices.Equal(p.Replicas(s), m.Replicas(s, v, 3)) {
					t.Errorf("goroutine %d: Replicas(%d) under %d members differs from Map.Replicas", g, s, len(v))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
