// Package gossip provides the protocol-generic building blocks of a
// SWIM-style peer-sampled membership layer (Das et al., "SWIM: Scalable
// Weakly-consistent Infection-style Process Group Membership Protocol"):
// a deterministic round-robin peer sampler and a bounded piggyback queue
// that retransmits each update O(log n) times. The node-side state machine
// (probe timers, suspicion, eviction, refutation) lives in internal/athena;
// this package holds the pieces that are pure data structure and therefore
// testable in isolation.
package gossip

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// Sampler deals peers in SWIM's round-robin random order: every peer is
// visited exactly once per ring traversal (so probe intervals are bounded
// by ceil(n/k) ticks, not merely expected), and the ring is reshuffled
// between traversals. It is deterministic in its seed, which keeps
// simulated runs reproducible.
type Sampler struct {
	rng    *rand.Rand
	ring   []string
	sorted []string // ring in canonical order, for SetPeers change detection
	pos    int
	next   []string // Next's deal scratch, reused across calls
	pick   []string // Pick's candidate scratch, reused across calls
}

// splitmixSource is a tiny deterministic rand.Source64 (splitmix64,
// Steele et al.). The stdlib's default source carries ~5KB of state per
// instance and a fleet allocates one sampler per node, so the sampler
// draws from this 8-byte generator instead.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewSampler returns a sampler drawing from the given seed.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(&splitmixSource{state: uint64(seed)})}
}

// SetPeers replaces the peer set; peers must be sorted. The ring is
// rebuilt (and reshuffled) only when the membership actually changed, so
// steady-state ticks keep their round-robin position.
func (s *Sampler) SetPeers(peers []string) {
	if len(peers) == len(s.sorted) {
		same := true
		for i, p := range peers {
			if s.sorted[i] != p {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	s.sorted = append(s.sorted[:0], peers...)
	sort.Strings(s.sorted) // canonical order, also the pre-shuffle state
	s.ring = append(s.ring[:0], s.sorted...)
	s.rng.Shuffle(len(s.ring), func(i, j int) { s.ring[i], s.ring[j] = s.ring[j], s.ring[i] })
	s.pos = 0
}

// Next deals the next k distinct peers off the ring, reshuffling when a
// traversal completes. Fewer than k are returned only when the ring is
// smaller than k. The returned slice is scratch owned by the sampler,
// valid until the next call.
func (s *Sampler) Next(k int) []string {
	if len(s.ring) == 0 || k <= 0 {
		return nil
	}
	if k > len(s.ring) {
		k = len(s.ring)
	}
	out := s.next[:0]
	for len(out) < k {
		if s.pos >= len(s.ring) {
			s.rng.Shuffle(len(s.ring), func(i, j int) { s.ring[i], s.ring[j] = s.ring[j], s.ring[i] })
			s.pos = 0
		}
		out = append(out, s.ring[s.pos])
		s.pos++
	}
	s.next = out
	return out
}

// Pick draws k distinct peers uniformly at random, skipping excluded ids —
// the ping-req intermediary choice, which must not reuse the ring position
// (an indirect probe should not perturb the round-robin schedule). The
// returned slice is scratch owned by the sampler, valid until the next
// Pick.
func (s *Sampler) Pick(k int, exclude map[string]bool) []string {
	if k <= 0 || len(s.ring) == 0 {
		return nil
	}
	candidates := s.pick[:0]
	for _, p := range s.ring {
		if !exclude[p] {
			candidates = append(candidates, p)
		}
	}
	sort.Strings(candidates)
	if k > len(candidates) {
		k = len(candidates)
	}
	s.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	s.pick = candidates
	return candidates[:k]
}

// Peers returns the current ring size.
func (s *Sampler) Peers() int { return len(s.ring) }

// Budget is SWIM's per-update retransmit allowance: lambda * ceil(log2(n+1)),
// at least 1. Disseminating each update that many times reaches all n
// members with high probability while bounding per-update traffic.
func Budget(lambda, n int) int {
	if lambda <= 0 {
		lambda = 1
	}
	log := 1
	for v := 1; v < n+1; v <<= 1 {
		log++
	}
	b := lambda * log
	if b < 1 {
		b = 1
	}
	return b
}

// queueEntry is one update awaiting dissemination.
type queueEntry[T any] struct {
	key     string
	rank    uint64
	payload T
	sends   int
	budget  int
}

// Queue is the bounded piggyback buffer: updates of type T keyed by
// subject, each carrying a precedence rank (newer protocol state replaces
// older) and a retransmit budget. Take prefers the least-transmitted
// updates (SWIM's freshness bias) and drops entries whose budget is spent.
// Payloads are held by value: a Put boxes nothing, and a Take copies them
// into the one slice it returns.
type Queue[T any] struct {
	entries map[string]*queueEntry[T]
	ordered []*queueEntry[T] // Take's sort scratch, reused across calls
}

// NewQueue returns an empty piggyback queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{entries: make(map[string]*queueEntry[T])}
}

// Put inserts or supersedes the update for key. A strictly higher rank
// replaces the stored update and resets its transmit count; an equal or
// lower rank is stale and ignored. Returns whether the update was stored.
func (q *Queue[T]) Put(key string, rank uint64, payload T, budget int) bool {
	e, ok := q.entries[key]
	if ok && rank <= e.rank {
		return false
	}
	if !ok {
		e = new(queueEntry[T])
		q.entries[key] = e
	}
	*e = queueEntry[T]{key: key, rank: rank, payload: payload, budget: budget}
	return true
}

// Rank returns the stored precedence rank for key (0 when absent).
func (q *Queue[T]) Rank(key string) uint64 {
	if e, ok := q.entries[key]; ok {
		return e.rank
	}
	return 0
}

// Take returns up to max payloads for piggybacking on an outgoing message,
// least-transmitted first (ties broken by key for determinism), charging
// one transmission to each and evicting entries whose budget is exhausted.
// The returned slice is the caller's own, and the only allocation.
func (q *Queue[T]) Take(max int) []T {
	if max <= 0 || len(q.entries) == 0 {
		return nil
	}
	ordered := q.ordered[:0]
	for _, e := range q.entries {
		ordered = append(ordered, e)
	}
	// Keys are distinct, so the order is total and an unstable sort is
	// deterministic.
	slices.SortFunc(ordered, func(a, b *queueEntry[T]) int {
		if a.sends != b.sends {
			return cmp.Compare(a.sends, b.sends)
		}
		return strings.Compare(a.key, b.key)
	})
	if max > len(ordered) {
		max = len(ordered)
	}
	out := make([]T, 0, max)
	for _, e := range ordered[:max] {
		out = append(out, e.payload)
		e.sends++
		if e.sends >= e.budget {
			delete(q.entries, e.key)
		}
	}
	clear(ordered) // drop entry references so evictions can collect
	q.ordered = ordered[:0]
	return out
}

// Len is the number of updates still awaiting dissemination.
func (q *Queue[T]) Len() int { return len(q.entries) }
