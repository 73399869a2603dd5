package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"athena/internal/simclock"
)

var origin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newNet() (*simclock.Scheduler, *Network) {
	s := simclock.New(origin)
	return s, New(s)
}

func TestSendSerializationAndLatency(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	var deliveredAt time.Time
	net.AddNode("b", func(from string, size int64, payload any) {
		deliveredAt = s.Now()
		if from != "a" || size != 1000 {
			t.Errorf("delivery from=%s size=%d", from, size)
		}
		if msg, ok := payload.(string); !ok || msg != "hello" {
			t.Errorf("payload = %v", payload)
		}
	})
	// 1000 B at 1000 B/s = 1s serialization + 50ms latency.
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000, Latency: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("a", "b", 1000, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := origin.Add(time.Second + 50*time.Millisecond)
	if !deliveredAt.Equal(want) {
		t.Errorf("deliveredAt = %v, want %v", deliveredAt, want)
	}
}

func TestFIFOQueueing(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	var deliveries []time.Time
	net.AddNode("b", func(string, int64, any) { deliveries = append(deliveries, s.Now()) })
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	// Two back-to-back 500 B messages: second waits for the first.
	if err := net.Send("a", "b", 500, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("a", "b", 500, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	if !deliveries[0].Equal(origin.Add(500 * time.Millisecond)) {
		t.Errorf("first delivery at %v", deliveries[0])
	}
	if !deliveries[1].Equal(origin.Add(time.Second)) {
		t.Errorf("second delivery at %v (no FIFO backlog)", deliveries[1])
	}
}

func TestDirectionsIndependent(t *testing.T) {
	s, net := newNet()
	count := 0
	net.AddNode("a", func(string, int64, any) { count++ })
	net.AddNode("b", func(string, int64, any) { count++ })
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	// Simultaneous opposite-direction sends must not queue behind each
	// other (duplex link).
	if err := net.Send("a", "b", 1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("b", "a", 1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(origin.Add(1100*time.Millisecond), 0); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("deliveries = %d, want 2 (duplex)", count)
	}
}

func TestSendErrors(t *testing.T) {
	_, net := newNet()
	net.AddNode("a", nil)
	net.AddNode("b", nil)
	net.AddNode("c", nil)
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("x", "a", 1, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown sender: %v", err)
	}
	if err := net.Send("a", "x", 1, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown receiver: %v", err)
	}
	if err := net.Send("a", "c", 1, nil); !errors.Is(err, ErrNoLink) {
		t.Errorf("no link: %v", err)
	}
	if err := net.AddLink("a", "zz", LinkConfig{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("AddLink unknown: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	net.AddNode("b", nil)
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("a", "b", 700, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("b", "a", 300, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.BytesSent != 1000 || st.BytesDelivered != 1000 || st.MessagesDelivered != 2 {
		t.Errorf("stats = %+v", st)
	}
	ls := net.LinkStats("a", "b")
	if ls.Bytes != 1000 || ls.Messages != 2 {
		t.Errorf("link stats = %+v", ls)
	}
}

func TestGridRouting(t *testing.T) {
	_, net := newNet()
	if err := BuildGrid(net, 4, 4, LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	if got := len(net.Nodes()); got != 16 {
		t.Fatalf("nodes = %d", got)
	}
	// Manhattan distance between corners is 6.
	hops, err := net.PathLength(GridNodeID(0, 0), GridNodeID(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if hops != 6 {
		t.Errorf("hops = %d, want 6", hops)
	}
	// Next hop from (0,0) toward (0,3) must be a neighbor.
	hop, err := net.NextHop(GridNodeID(0, 0), GridNodeID(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if hop != GridNodeID(0, 1) && hop != GridNodeID(1, 0) {
		t.Errorf("NextHop = %s", hop)
	}
	// Self route.
	if hop, err := net.NextHop("n0-0", "n0-0"); err != nil || hop != "n0-0" {
		t.Errorf("self NextHop = %s, %v", hop, err)
	}
}

func TestNoRoute(t *testing.T) {
	_, net := newNet()
	net.AddNode("island", nil)
	net.AddNode("main", nil)
	if _, err := net.NextHop("island", "main"); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	s, net := newNet()
	if err := BuildLine(net, 3, LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	// n0 -> n2 via manual forwarding at n1.
	got := ""
	if err := net.SetHandler("n1", func(from string, size int64, payload any) {
		hop, err := net.NextHop("n1", "n2")
		if err != nil {
			t.Error(err)
			return
		}
		if err := net.Send("n1", hop, size, payload); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetHandler("n2", func(from string, size int64, payload any) {
		got, _ = payload.(string)
	}); err != nil {
		t.Fatal(err)
	}
	hop, err := net.NextHop("n0", "n2")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Send("n0", hop, 100, "relay"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != "relay" {
		t.Errorf("payload = %q", got)
	}
}

func TestBuildStarAndRandom(t *testing.T) {
	_, net := newNet()
	if err := BuildStar(net, 5, LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	if hops, err := net.PathLength("leaf0", "leaf4"); err != nil || hops != 2 {
		t.Errorf("star hops = %d, %v", hops, err)
	}

	_, net2 := newNet()
	rng := rand.New(rand.NewSource(5))
	if err := BuildRandomConnected(net2, 20, 10, LinkConfig{Bandwidth: 1000}, rng); err != nil {
		t.Fatal(err)
	}
	// Connectivity: every pair reachable.
	nodes := net2.Nodes()
	for _, a := range nodes {
		if _, err := net2.PathLength(a, nodes[0]); err != nil {
			t.Fatalf("unreachable %s: %v", a, err)
		}
	}
}

// Property: total delivered bytes equals sent bytes minus drops, for
// random traffic.
func TestConservationProperty(t *testing.T) {
	s, net := newNet()
	if err := BuildGrid(net, 3, 3, LinkConfig{Bandwidth: 10000}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	nodes := net.Nodes()
	for i := 0; i < 500; i++ {
		a := nodes[rng.Intn(len(nodes))]
		nbs := net.Neighbors(a)
		if len(nbs) == 0 {
			continue
		}
		b := nbs[rng.Intn(len(nbs))]
		if err := net.Send(a, b, int64(rng.Intn(5000)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.BytesDelivered != st.BytesSent {
		t.Errorf("delivered %d != sent %d (no drops configured)", st.BytesDelivered, st.BytesSent)
	}
	if st.MessagesDelivered != st.MessagesSent {
		t.Errorf("messages delivered %d != sent %d", st.MessagesDelivered, st.MessagesSent)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	s, net := newNet()
	net.AddNode("a", nil)
	net.AddNode("b", func(string, int64, any) {})
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1e9}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := net.Send("a", "b", 1000, nil); err != nil {
			b.Fatal(err)
		}
		s.Run(0)
	}
}

func TestPriorityJumpsQueue(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	var order []string
	net.AddNode("b", func(_ string, _ int64, payload any) {
		tag, _ := payload.(string)
		order = append(order, tag)
	})
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	// Three bulk messages queue up; a critical message sent last must be
	// serialized right after the in-flight one (no preemption), beating
	// the remaining bulk backlog.
	for i := 0; i < 3; i++ {
		if err := net.Send("a", "b", 1000, fmt.Sprintf("bulk%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.SendPriority("a", "b", 100, 1, "critical"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"bulk0", "critical", "bulk1", "bulk2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPrioritySamePriorityStaysFIFO(t *testing.T) {
	s, net := newNet()
	net.AddNode("a", nil)
	var order []string
	net.AddNode("b", func(_ string, _ int64, payload any) {
		tag, _ := payload.(string)
		order = append(order, tag)
	})
	if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := net.SendPriority("a", "b", 100, 2, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != fmt.Sprintf("m%d", i) {
			t.Fatalf("FIFO broken: %v", order)
		}
	}
}
