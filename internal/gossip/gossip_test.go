package gossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestSamplerDeterministic(t *testing.T) {
	peers := []string{"a", "b", "c", "d", "e"}
	s1 := NewSampler(42)
	s2 := NewSampler(42)
	s1.SetPeers(peers)
	s2.SetPeers(peers)
	for i := 0; i < 20; i++ {
		a, b := s1.Next(2), s2.Next(2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("draw %d diverged: %v vs %v", i, a, b)
		}
	}
}

func TestSamplerRoundRobinCoverage(t *testing.T) {
	peers := []string{"a", "b", "c", "d", "e", "f", "g"}
	s := NewSampler(7)
	s.SetPeers(peers)
	// One full traversal must visit every peer exactly once.
	seen := map[string]int{}
	for i := 0; i < len(peers); i++ {
		for _, p := range s.Next(1) {
			seen[p]++
		}
	}
	for _, p := range peers {
		if seen[p] != 1 {
			t.Fatalf("peer %s visited %d times in one traversal", p, seen[p])
		}
	}
}

func TestSamplerSetPeersKeepsPositionWhenUnchanged(t *testing.T) {
	peers := []string{"a", "b", "c", "d"}
	s := NewSampler(3)
	s.SetPeers(peers)
	first := s.Next(1)[0]
	// Re-setting the identical membership must not restart the traversal.
	s.SetPeers([]string{"a", "b", "c", "d"})
	second := s.Next(1)[0]
	if first == second {
		t.Fatalf("traversal restarted after no-op SetPeers: drew %s twice", first)
	}
	seen := map[string]bool{first: true, second: true}
	for i := 0; i < 2; i++ {
		seen[s.Next(1)[0]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("traversal after no-op SetPeers revisited a peer: %v", seen)
	}
}

func TestSamplerSetPeersRebuildsOnChange(t *testing.T) {
	s := NewSampler(9)
	s.SetPeers([]string{"a", "b", "c"})
	s.Next(2)
	s.SetPeers([]string{"a", "b", "c", "d"})
	if s.Peers() != 4 {
		t.Fatalf("ring size = %d, want 4", s.Peers())
	}
	got := s.Next(4)
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("rebuilt ring = %v", got)
	}
}

func TestSamplerPickExcludes(t *testing.T) {
	s := NewSampler(11)
	s.SetPeers([]string{"a", "b", "c", "d", "e"})
	for i := 0; i < 10; i++ {
		got := s.Pick(3, map[string]bool{"c": true})
		if len(got) != 3 {
			t.Fatalf("Pick returned %d peers, want 3", len(got))
		}
		for _, p := range got {
			if p == "c" {
				t.Fatalf("Pick returned excluded peer: %v", got)
			}
		}
	}
	// Asking for more than available caps at the candidate count.
	if got := s.Pick(10, map[string]bool{"a": true}); len(got) != 4 {
		t.Fatalf("Pick(10) = %d peers, want 4", len(got))
	}
	if got := s.Pick(0, nil); got != nil {
		t.Fatalf("Pick(0) = %v, want nil", got)
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(1)
	if got := s.Next(3); got != nil {
		t.Fatalf("Next on empty ring = %v", got)
	}
	if got := s.Pick(1, nil); got != nil {
		t.Fatalf("Pick on empty ring = %v", got)
	}
}

func TestBudgetGrowsLogarithmically(t *testing.T) {
	cases := []struct {
		lambda, n, want int
	}{
		{3, 0, 3},    // log term floors at 1
		{3, 1, 6},    // ceil(log2(2)) = 1 -> 2 with the +1 convention
		{3, 7, 12},   // ceil(log2(8)) = 3 -> 4
		{3, 63, 21},  // n=63 -> 7
		{3, 511, 30}, // n=511 -> 10
		{0, 63, 7},   // lambda floors at 1
	}
	for _, c := range cases {
		if got := Budget(c.lambda, c.n); got != c.want {
			t.Errorf("Budget(%d, %d) = %d, want %d", c.lambda, c.n, got, c.want)
		}
	}
	// Sub-linear: doubling n adds a constant, not a factor.
	if Budget(3, 1024)-Budget(3, 512) > 3 {
		t.Errorf("budget not logarithmic: %d vs %d", Budget(3, 512), Budget(3, 1024))
	}
}

func TestQueueRankSupersedes(t *testing.T) {
	q := NewQueue[string]()
	if !q.Put("src", 5, "old", 10) {
		t.Fatal("first Put rejected")
	}
	if q.Put("src", 5, "dup", 10) {
		t.Fatal("equal-rank Put accepted; should be stale")
	}
	if q.Put("src", 4, "older", 10) {
		t.Fatal("lower-rank Put accepted")
	}
	if !q.Put("src", 6, "new", 10) {
		t.Fatal("higher-rank Put rejected")
	}
	got := q.Take(1)
	if len(got) != 1 || got[0] != "new" {
		t.Fatalf("Take = %v, want [new]", got)
	}
	if q.Rank("src") != 6 {
		t.Fatalf("Rank = %d, want 6", q.Rank("src"))
	}
	if q.Rank("absent") != 0 {
		t.Fatalf("Rank(absent) = %d, want 0", q.Rank("absent"))
	}
}

func TestQueueBudgetExhaustion(t *testing.T) {
	q := NewQueue[string]()
	q.Put("a", 1, "a1", 2)
	for i := 0; i < 2; i++ {
		if got := q.Take(4); len(got) != 1 {
			t.Fatalf("Take %d = %v, want one item", i, got)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("entry survived its budget: len=%d", q.Len())
	}
	if got := q.Take(4); got != nil {
		t.Fatalf("Take on drained queue = %v", got)
	}
}

func TestQueuePrefersLeastTransmitted(t *testing.T) {
	q := NewQueue[string]()
	q.Put("a", 1, "a", 10)
	q.Put("b", 1, "b", 10)
	q.Take(2) // both at 1 send
	q.Put("c", 1, "c", 10)
	got := q.Take(1)
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("Take = %v, want the fresh update c", got)
	}
	// Now all at 1 send; ties break by key deterministically.
	got = q.Take(2)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("tie-break Take = %v, want [a b]", got)
	}
}

func TestQueueRankResetsBudget(t *testing.T) {
	q := NewQueue[string]()
	q.Put("src", 1, "v1", 2)
	q.Take(1)
	// A superseding update starts a fresh retransmit budget.
	q.Put("src", 2, "v2", 2)
	for i := 0; i < 2; i++ {
		got := q.Take(1)
		if len(got) != 1 || got[0] != "v2" {
			t.Fatalf("Take %d = %v, want v2", i, got)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len=%d after budget spent", q.Len())
	}
}

// refTake is Take before the queue was generic, verbatim but for its
// entry type: sort.Slice over (sends, key), one transmission charged to
// each payload taken.
func refTake(entries map[string]*refEntry, max int) []string {
	if max <= 0 || len(entries) == 0 {
		return nil
	}
	var ordered []*refEntry
	for _, e := range entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].sends != ordered[b].sends {
			return ordered[a].sends < ordered[b].sends
		}
		return ordered[a].key < ordered[b].key
	})
	if max > len(ordered) {
		max = len(ordered)
	}
	out := make([]string, 0, max)
	for _, e := range ordered[:max] {
		out = append(out, e.payload)
		e.sends++
		if e.sends >= e.budget {
			delete(entries, e.key)
		}
	}
	return out
}

// refEntry is refTake's queue entry.
type refEntry struct {
	key     string
	rank    uint64
	payload string
	sends   int
	budget  int
}

// TestQueueTakeMatchesSortSlice drives the queue and the sort.Slice
// reference with the same random Puts and Takes — few keys, so entries
// supersede and tie on sends — and wants every Take to return the same
// payloads in the same order.
func TestQueueTakeMatchesSortSlice(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue[string]()
		ref := make(map[string]*refEntry)
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 {
				key := fmt.Sprintf("k%02d", rng.Intn(12))
				rank, budget := uint64(rng.Intn(6)), 1+rng.Intn(5)
				payload := fmt.Sprintf("%s@%d/%d", key, rank, op)
				stored := q.Put(key, rank, payload, budget)
				if e, ok := ref[key]; !ok || rank > e.rank {
					ref[key] = &refEntry{key: key, rank: rank, payload: payload, budget: budget}
					if !stored {
						t.Fatalf("seed %d op %d: Put(%s, %d) refused", seed, op, key, rank)
					}
				} else if stored {
					t.Fatalf("seed %d op %d: stale Put(%s, %d) stored", seed, op, key, rank)
				}
				continue
			}
			max := rng.Intn(6)
			got, want := q.Take(max), refTake(ref, max)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: Take(%d) = %v, the sort.Slice queue's %v", seed, op, max, got, want)
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), len(ref))
			}
		}
	}
}

// TestQueueTakeAllocatesItsSliceOnly: a Take copies the payloads into
// the slice it returns and allocates nothing else — no sort closure or
// swapper, no boxed payload — and a Put that supersedes an entry
// rewrites it in place.
func TestQueueTakeAllocatesItsSliceOnly(t *testing.T) {
	q := NewQueue[string]()
	for i := 0; i < 40; i++ {
		q.Put(fmt.Sprintf("k%02d", i), 1, "v", 1000)
	}
	q.Take(8) // size the sort scratch
	if got := testing.AllocsPerRun(100, func() { q.Take(8) }); got != 1 {
		t.Errorf("Take allocates %v times, want 1", got)
	}
	rank := uint64(1)
	if got := testing.AllocsPerRun(100, func() {
		rank++
		q.Put("k00", rank, "v", 1000)
	}); got != 0 {
		t.Errorf("a superseding Put allocates %v times, want 0", got)
	}
}
