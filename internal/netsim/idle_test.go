package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"athena/internal/simclock"
)

// sendViaHeap is SendPriority as it was before an idle link skipped its
// queue, kept verbatim apart from its name and receiver: every message
// goes through the link's heap. TestIdleLinkMatchesHeapReference runs it
// as the reference.
func sendViaHeap(n *Network, from, to string, size int64, priority int, payload any) error {
	if _, ok := n.nodes[from]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if _, ok := n.nodes[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	l, ok := n.links[[2]string{from, to}]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrNoLink, from, to)
	}
	if size < 0 {
		size = 0
	}
	l.stats.Bytes += size
	l.stats.Messages++
	n.stats.MessagesSent++
	n.stats.BytesSent += size
	m := n.free
	if m != nil {
		n.free = m.next
		*m = pendingMsg{size: size, payload: payload, from: from, to: to, priority: priority, seq: l.seq, link: l}
	} else {
		m = &pendingMsg{size: size, payload: payload, from: from, to: to, priority: priority, seq: l.seq, link: l}
	}
	heap.Push(&l.queue, m)
	l.seq++
	if !l.sending {
		n.transmitNext(l)
	}
	return nil
}

// TestIdleLinkMatchesHeapReference sends the same random traffic — random
// sizes and priorities, bursts of sends in one instant, sends from inside
// delivery handlers, link loss and a link outage — through the network
// and through the always-heap reference. Every delivery, its instant and
// its order, every link's and the network's counters, and the events the
// kernel ran must be equal. Links go idle and busy many times a run, so
// both the skipped queue and the heap are exercised.
func TestIdleLinkMatchesHeapReference(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	pairs := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}}
	for seed := int64(1); seed <= 30; seed++ {
		var runs [2][]string
		var stats [2]string
		for ref := 0; ref < 2; ref++ {
			send := func(n *Network, from, to string, size int64, prio int, payload any) error {
				if ref == 1 {
					return sendViaHeap(n, from, to, size, prio, payload)
				}
				return n.SendPriority(from, to, size, prio, payload)
			}
			s := simclock.New(origin)
			net := New(s)
			rng := rand.New(rand.NewSource(seed))
			var log []string
			for _, id := range nodes {
				id := id
				net.AddNode(id, func(from string, size int64, payload any) {
					log = append(log, fmt.Sprintf("%v %s->%s %d %v", s.Now().Sub(origin), from, id, size, payload))
					// Some deliveries answer at once, onto the reverse link.
					if k, ok := payload.(int); ok && k%3 == 0 {
						if err := send(net, id, from, int64(k%700), k%2, -k); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
			for i, p := range pairs {
				cfg := LinkConfig{Bandwidth: float64(1000 * (i + 1)), Latency: time.Duration(i*7) * time.Millisecond}
				if err := net.AddLink(p[0], p[1], cfg); err != nil {
					t.Fatal(err)
				}
			}
			net.SeedFailures(seed)
			if err := net.SetLoss(0.05); err != nil {
				t.Fatal(err)
			}
			if err := net.ScheduleLinkOutage("b", "c", origin.Add(3*time.Second), time.Second); err != nil {
				t.Fatal(err)
			}
			at := origin
			for k := 1; k <= 400; k++ {
				if rng.Intn(3) == 0 {
					at = at.Add(time.Duration(rng.Intn(80)) * time.Millisecond)
				}
				p := pairs[rng.Intn(len(pairs))]
				from, to := p[0], p[1]
				if rng.Intn(2) == 0 {
					from, to = to, from
				}
				size, prio, k := int64(rng.Intn(2000)), rng.Intn(3), k
				s.At(at, func() {
					if err := send(net, from, to, size, prio, k); err != nil {
						t.Fatal(err)
					}
				})
			}
			if err := s.Run(0); err != nil {
				t.Fatal(err)
			}
			runs[ref] = log
			stats[ref] = fmt.Sprintf("%+v events %d", net.Stats(), net.Kernel().Executed())
			for _, p := range pairs {
				stats[ref] += fmt.Sprintf(" %s-%s %+v", p[0], p[1], net.LinkStats(p[0], p[1]))
			}
		}
		if !slices.Equal(runs[0], runs[1]) {
			for i := range min(len(runs[0]), len(runs[1])) {
				if runs[0][i] != runs[1][i] {
					t.Fatalf("seed %d: delivery %d is %q, reference %q", seed, i, runs[0][i], runs[1][i])
				}
			}
			t.Fatalf("seed %d: %d deliveries, reference %d", seed, len(runs[0]), len(runs[1]))
		}
		if stats[0] != stats[1] {
			t.Fatalf("seed %d: counters\n%s\nreference\n%s", seed, stats[0], stats[1])
		}
		if len(runs[0]) < 300 {
			t.Fatalf("seed %d: only %d deliveries; the run exercises too little", seed, len(runs[0]))
		}
	}
}
