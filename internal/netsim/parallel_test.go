package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"athena/internal/simclock"
)

// chatterNet builds a random connected topology and drives deterministic
// node-local traffic over it: every node ticks on its own phase and
// sends to a neighbor chosen by its private splitmix64 stream; receivers
// probabilistically reply. Loss, a link outage, and node churn are all
// injected. seq puts every node on one shared lane; otherwise each gets
// its own. Returns per-node receive traces and the network.
func chatterNet(t *testing.T, seq bool) (map[string][]string, *Network) {
	t.Helper()
	const (
		nNodes = 24
		seed   = 0x5eed
		run    = 3 * time.Second
	)
	epoch := time.Unix(0, 0).UTC()

	var net *Network
	if seq {
		net = New(simclock.New(epoch))
	} else {
		net = NewParallel(simclock.NewKernel(epoch, simclock.KernelOpts{Seed: seed}))
	}

	// The odd bandwidth keeps serialization times off any round-ns grid:
	// the two lane layouts agree on the order of same-node same-instant
	// events only up to their (different but equally valid) tie-break
	// rules, so the equivalence scenario avoids manufacturing
	// exact-instant ties.
	topoRNG := rand.New(rand.NewSource(seed))
	cfg := LinkConfig{Bandwidth: 1250013, Latency: 5 * time.Millisecond}
	if err := BuildRandomConnected(net, nNodes, nNodes, cfg, topoRNG); err != nil {
		t.Fatal(err)
	}

	// traceArr[i] is appended only by node i's handler — lane-owned.
	traceArr := make([][]string, nNodes)
	ids := make([]string, nNodes)
	rngs := make([]uint64, nNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
		rngs[i] = simclock.Mix64(seed ^ uint64(i+1))
		idx := i
		self := ids[i]
		clock := net.ClockFor(self)
		net.AddNode(self, func(from string, size int64, payload any) {
			traceArr[idx] = append(traceArr[idx],
				fmt.Sprintf("%s<-%s:%d@%d", self, from, size, clock.Now().UnixNano()))
			// Occasional reply exercises receive-triggered sends.
			if simclock.RandNext(&rngs[idx])%4 == 0 {
				_ = net.Send(self, from, 64, nil)
			}
		})
	}

	net.SeedFailures(seed)
	if err := net.SetLoss(0.05); err != nil {
		t.Fatal(err)
	}
	if err := net.ScheduleLinkOutage(ids[0], net.Neighbors(ids[0])[0], epoch.Add(700*time.Millisecond), 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := net.ScheduleNodeOutage(ids[nNodes-1], epoch.Add(1100*time.Millisecond), 600*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	for i, id := range ids {
		idx := i
		self := id
		clock := net.ClockFor(self)
		nbs := net.Neighbors(self)
		var tick func()
		tick = func() {
			draw := simclock.RandNext(&rngs[idx])
			peer := nbs[draw%uint64(len(nbs))]
			size := int64(100 + draw%900)
			_ = net.SendPriority(self, peer, size, int(draw%3), nil)
			_ = net.AtNode(self, clock.Now().Add(time.Duration(7000019+idx*99991)*time.Nanosecond), tick)
		}
		if err := net.AtNode(id, epoch.Add(time.Duration(i*1000003)*time.Nanosecond), tick); err != nil {
			t.Fatal(err)
		}
	}

	if err := net.RunUntil(epoch.Add(run), 0); err != nil {
		t.Fatal(err)
	}
	traces := make(map[string][]string, nNodes)
	for i, id := range ids {
		traces[id] = traceArr[i]
	}
	return traces, net
}

// TestParallelMatchesSequentialOutcome pins the two lane layouts (one
// shared lane, a lane per node) to each other: same topology, traffic,
// loss streams, outage and churn schedule must produce the same aggregate
// counters and the same per-node receive multisets. (Event order between
// independent nodes may differ; their effects commute.)
func TestParallelMatchesSequentialOutcome(t *testing.T) {
	seqTraces, seqNet := chatterNet(t, true)
	parTraces, parNet := chatterNet(t, false)

	if s, p := seqNet.Stats(), parNet.Stats(); s != p {
		t.Fatalf("stats diverged:\nsequential %+v\nparallel   %+v", s, p)
	}
	for id, want := range seqTraces {
		got := parTraces[id]
		if len(got) != len(want) {
			t.Fatalf("node %s: %d receives on parallel, %d on sequential", id, len(got), len(want))
		}
		ws, gs := append([]string(nil), want...), append([]string(nil), got...)
		sort.Strings(ws)
		sort.Strings(gs)
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("node %s receive multiset diverged at %d: %q vs %q", id, i, gs[i], ws[i])
			}
		}
	}
}

// TestParallelDeterministicAcrossWorkers pins the headline property at
// the netsim layer: a lane-per-node run repeated with the same seed gives
// identical per-node receive traces, order included. (It compared worker
// counts until the kernel lost its worker pool; the name is kept.)
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	ref, refNet := chatterNet(t, false)
	got, gotNet := chatterNet(t, false)
	if r, g := refNet.Stats(), gotNet.Stats(); r != g {
		t.Fatalf("stats diverged:\nfirst  %+v\nsecond %+v", r, g)
	}
	for id, want := range ref {
		if g := got[id]; !slices.Equal(g, want) {
			t.Fatalf("node %s receives diverged:\nfirst  %q\nsecond %q", id, want, g)
		}
	}
}

// TestParallelRoutesMatchSequential exercises the route cache under both
// lane layouts: next hops agree for every pair on the same topology.
func TestParallelRoutesMatchSequential(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	build := func(net *Network) {
		rng := rand.New(rand.NewSource(7))
		BuildRandomConnected(net, 16, 10, LinkConfig{Bandwidth: 1e6, Latency: time.Millisecond}, rng)
	}
	seq := New(simclock.New(epoch))
	build(seq)
	par := NewParallel(simclock.NewKernel(epoch, simclock.KernelOpts{}))
	build(par)
	ids := seq.Nodes()
	for _, a := range ids {
		for _, b := range ids {
			sh, serr := seq.NextHop(a, b)
			ph, perr := par.NextHop(a, b)
			if (serr == nil) != (perr == nil) || sh != ph {
				t.Fatalf("NextHop(%s, %s): sequential (%q, %v), parallel (%q, %v)", a, b, sh, serr, ph, perr)
			}
		}
	}
}

// TestSelfAndCrossLanePostDeliverTogether: the propagation hop is a
// Post to the sender's own lane when the lane is shared and a mailbox
// Post across lanes otherwise. Both must hand the message over at the
// same instant — serialization plus latency after the send.
func TestSelfAndCrossLanePostDeliverTogether(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	sentAt := epoch.Add(3 * time.Millisecond)
	deliveredAt := func(net *Network, sharedLane bool) time.Time {
		t.Helper()
		var at time.Time
		net.AddNode("a", nil)
		net.AddNode("b", func(string, int64, any) { at = net.ClockFor("b").Now() })
		if got := net.LaneOf("a") == net.LaneOf("b"); got != sharedLane || net.LaneOf("a") == nil {
			t.Fatalf("a and b share a lane: %v, want %v", got, sharedLane)
		}
		if err := net.AddLink("a", "b", LinkConfig{Bandwidth: 1000, Latency: 50 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := net.AtNode("a", sentAt, func() { _ = net.Send("a", "b", 1000, nil) }); err != nil {
			t.Fatal(err)
		}
		if err := net.RunUntil(epoch.Add(10*time.Second), 0); err != nil {
			t.Fatal(err)
		}
		return at
	}
	self := deliveredAt(New(simclock.New(epoch)), true)
	cross := deliveredAt(NewParallel(simclock.NewKernel(epoch, simclock.KernelOpts{})), false)
	if want := sentAt.Add(time.Second + 50*time.Millisecond); !self.Equal(want) || !cross.Equal(want) {
		t.Fatalf("delivered at %v on the shared lane and %v across lanes, want %v on both",
			self.Sub(epoch), cross.Sub(epoch), want.Sub(epoch))
	}
}
