package netsim

import (
	"testing"
	"time"
)

// Loss probability 1 destroys every message; the counters account for it.
func TestLinkLossDropsAll(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	delivered := 0
	net.AddNode("b", func(string, int64, any) { delivered++ })
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	net.SeedFailures(1)
	if err := net.SetLoss(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := net.Send("a", "b", 100, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("delivered = %d, want 0", delivered)
	}
	if got := net.Stats().MessagesLost; got != 5 {
		t.Errorf("MessagesLost = %d, want 5", got)
	}
	if got := net.LinkStats("a", "b").Lost; got != 5 {
		t.Errorf("link Lost = %d, want 5", got)
	}
}

func (n *Network) linkPair(a, b string) *link { return n.links[[2]string{a, b}] }

// SetLoss without SeedFailures is rejected: unseeded loss would be
// nondeterministic.
func TestLinkLossRequiresSeed(t *testing.T) {
	_, net := newNet()
	net.AddNode("a", nil)
	net.AddNode("b", nil)
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLoss(0.5); err == nil {
		t.Fatal("SetLoss before SeedFailures succeeded")
	}
}

// Same seed, same traffic, same losses: a fractional loss rate is exactly
// repeatable.
func TestLossDeterministicBySeed(t *testing.T) {
	run := func(seed int64) []int {
		s, net := newNet()
		net.AddNode("a", nil)
		var got []int
		net.AddNode("b", func(_ string, _ int64, payload any) {
			if i, ok := payload.(int); ok {
				got = append(got, i)
			}
		})
		if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1e6}); err != nil {
			t.Fatal(err)
		}
		net.SeedFailures(seed)
		if err := net.SetLoss(0.4); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := net.Send("a", "b", 100, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("loss 0.4 delivered %d/50; expected a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different survivors at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical loss patterns")
	}
}

// A scheduled outage window loses messages serialized inside it and lets
// traffic through once the link recovers.
func TestScheduledLinkOutage(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	var deliveredAt []time.Time
	net.AddNode("b", func(string, int64, any) { deliveredAt = append(deliveredAt, s.Now()) })
	// 100 B at 1000 B/s = 100 ms serialization, no latency.
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	// Down from +1s to +3s.
	if err := net.ScheduleLinkOutage("a", "b", origin.Add(time.Second), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// One message per second at +0s, +1.5s, +4s: the middle one dies.
	for _, at := range []time.Duration{0, 1500 * time.Millisecond, 4 * time.Second} {
		s.At(origin.Add(at), func() {
			if err := net.Send("a", "b", 100, nil); err != nil {
				t.Error(err)
			}
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d messages, want 2 (outage window eats the middle one)", len(deliveredAt))
	}
	if net.Stats().MessagesLost != 1 {
		t.Errorf("MessagesLost = %d, want 1", net.Stats().MessagesLost)
	}
	if want := origin.Add(100 * time.Millisecond); !deliveredAt[0].Equal(want) {
		t.Errorf("first delivery at %v, want %v", deliveredAt[0], want)
	}
	if want := origin.Add(4*time.Second + 100*time.Millisecond); !deliveredAt[1].Equal(want) {
		t.Errorf("post-recovery delivery at %v, want %v", deliveredAt[1], want)
	}
}

// Node churn: a down node neither sends nor receives, churn hooks see every
// transition, and a rejoined node works again.
func TestNodeChurn(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	delivered := 0
	net.AddNode("b", func(string, int64, any) { delivered++ })
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	type churn struct {
		id string
		up bool
	}
	var transitions []churn
	net.OnChurn(func(id string, up bool) { transitions = append(transitions, churn{id, up}) })

	if err := net.ScheduleNodeOutage("b", origin.Add(time.Second), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{0, 1500 * time.Millisecond, 4 * time.Second} {
		s.At(origin.Add(at), func() {
			if err := net.Send("a", "b", 100, nil); err != nil {
				t.Error(err)
			}
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2 (message during b's outage lost)", delivered)
	}
	if net.NodeDown("b") {
		t.Error("b still down after outage window")
	}
	want := []churn{{"b", false}, {"b", true}}
	if len(transitions) != len(want) {
		t.Fatalf("churn transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("churn transitions = %v, want %v", transitions, want)
		}
	}
	// Redundant SetNodeDown is a no-op for hooks.
	if err := net.SetNodeDown("b", false); err != nil {
		t.Fatal(err)
	}
	if len(transitions) != 2 {
		t.Errorf("redundant SetNodeDown fired a hook: %v", transitions)
	}
}
