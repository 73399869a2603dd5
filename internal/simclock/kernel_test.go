package simclock

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

var kernelEpoch = time.Unix(0, 0).UTC()

// chatterWorkload drives one kernel with a deterministic message workload:
// every node ticks periodically, and each tick sends a message to a peer
// chosen by the node's own splitmix64 stream. Returns per-node traces.
func chatterWorkload(t *testing.T, nodes int, seed uint64, dur time.Duration) [][]string {
	t.Helper()
	const delay = 10 * time.Millisecond
	s := New(kernelEpoch)
	traces := make([][]string, nodes)
	hit := func(node int, tag string) {
		traces[node] = append(traces[node], fmt.Sprintf("%d@%s:%s", node, s.Now().Format(time.RFC3339Nano), tag))
	}
	rngs := make([]uint64, nodes)
	for i := 0; i < nodes; i++ {
		rngs[i] = seed ^ uint64(i)*0x9e3779b97f4a7c15
		idx := i
		var tick func()
		tick = func() {
			hit(idx, "tick")
			draw := splitmix64(&rngs[idx])
			peer := int(draw % uint64(nodes))
			jitter := time.Duration(draw>>32%uint64(delay)) + delay
			s.AtCall(s.Now().Add(jitter), func(arg any) {
				hit(arg.(int), fmt.Sprintf("msg-from-%d", idx))
			}, peer)
			s.After(delay/2+time.Duration(draw%7)*time.Millisecond, tick)
		}
		s.After(time.Duration(i)*time.Millisecond, tick)
	}
	if err := s.Kernel().RunUntil(kernelEpoch.Add(dur), 0); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	return traces
}

// TestKernelDeterministicAcrossWorkers is the kernel's core claim on a
// 16-node chatter workload: the same seed, run twice, produces an
// identical per-node event trace. (It compared worker counts until the
// kernel lost its worker pool; the name is kept.)
func TestKernelDeterministicAcrossWorkers(t *testing.T) {
	a := chatterWorkload(t, 16, 0xa7e4a, 2*time.Second)
	b := chatterWorkload(t, 16, 0xa7e4a, 2*time.Second)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("same seed diverged on node %d: %d entries, then %d", i, len(a[i]), len(b[i]))
		}
	}
}

// TestKernelRunsOnCallingGoroutine: a kernel whose instants each hold 8
// runnable events starts no goroutine. Every event samples
// runtime.NumGoroutine and must see the count from before RunUntil.
func TestKernelRunsOnCallingGoroutine(t *testing.T) {
	const nodes = 8
	s := New(kernelEpoch)
	var samples []int
	for i := 0; i < nodes; i++ {
		for tick := 1; tick <= 5; tick++ {
			// Every node ticks at the same instants.
			s.At(kernelEpoch.Add(time.Duration(tick)*20*time.Millisecond), func() {
				samples = append(samples, runtime.NumGoroutine())
			})
		}
	}
	before := runtime.NumGoroutine()
	if err := s.Kernel().RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5*nodes {
		t.Fatalf("%d events ran, want %d", len(samples), 5*nodes)
	}
	for i, n := range samples {
		if n != before {
			t.Fatalf("event %d saw %d goroutines, %d before RunUntil", i, n, before)
		}
	}
}

// TestKernelSingleLaneMatchesScheduler pins Kernel.RunUntil to the
// Scheduler's hand-stepped Run on an identical schedule: same execution
// order, same observed clocks.
func TestKernelSingleLaneMatchesScheduler(t *testing.T) {
	type probe struct {
		at  time.Duration
		tag string
	}
	schedule := []probe{
		{5 * time.Millisecond, "a"},
		{5 * time.Millisecond, "b"}, // simultaneous: insertion order wins
		{1 * time.Millisecond, "c"},
		{9 * time.Millisecond, "d"},
		{5 * time.Millisecond, "e"},
	}
	run := func(drive func(s *Scheduler)) ([]string, time.Time) {
		s := New(kernelEpoch)
		var got []string
		for _, p := range schedule {
			tag := p.tag
			s.After(p.at, func() {
				got = append(got, fmt.Sprintf("%s@%s", tag, s.Now().Format(time.RFC3339Nano)))
			})
		}
		drive(s)
		return got, s.Now()
	}
	want, stepped := run(func(s *Scheduler) {
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	got, ran := run(func(s *Scheduler) {
		if err := s.Kernel().RunUntil(kernelEpoch.Add(9*time.Millisecond), 0); err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("kernel ran %q, scheduler %q", got, want)
	}
	if !ran.Equal(stepped) {
		t.Fatalf("clocks diverged: kernel %v, scheduler %v", ran, stepped)
	}
}

// TestKernelSimultaneousCrossLaneEvents pins what decides the order of
// events several nodes schedule for one instant: the order they were
// scheduled, through AtCall or the deprecated Post alike, the same on a
// second run. (It pinned the cross-lane merge order until the kernel lost
// its lanes; the name is kept.)
func TestKernelSimultaneousCrossLaneEvents(t *testing.T) {
	run := func() []string {
		k := NewKernel(kernelEpoch, KernelOpts{Workers: 4, Seed: 42})
		l := k.AddLane()
		if k.AddLane() != l {
			t.Fatal("AddLane returned a second lane")
		}
		var got []string
		at := kernelEpoch.Add(20 * time.Millisecond)
		for i := 0; i < 8; i++ {
			tag := fmt.Sprintf("src-%d", i)
			// Later sources schedule earlier: the order is the schedule's.
			l.After(time.Duration(8-i)*time.Millisecond, func() {
				if i%2 == 0 {
					l.Post(l, at, func(any) { got = append(got, tag) }, nil)
				} else {
					l.AtCall(at, func(any) { got = append(got, tag) }, nil)
				}
			})
		}
		if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := []string{"src-7", "src-6", "src-5", "src-4", "src-3", "src-2", "src-1", "src-0"}
	if got := run(); !slices.Equal(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	if got := run(); !slices.Equal(got, want) {
		t.Fatalf("second run delivered %q, want %q", got, want)
	}
}

// TestKernelPostClamp: an event scheduled into the past, through the
// deprecated Post as through At, runs at the current instant, never
// before it. (It pinned the clamp to the conservative window's end until
// the kernel lost its windows; the name is kept.)
func TestKernelPostClamp(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	l := k.AddLane()
	var at []time.Duration
	record := func(any) { at = append(at, l.Now().Sub(kernelEpoch)) }
	l.After(time.Millisecond, func() {
		l.Post(l, kernelEpoch, record, nil)
		l.AtCall(kernelEpoch, record, nil)
	})
	if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(at, []time.Duration{time.Millisecond, time.Millisecond}) {
		t.Fatalf("past events ran at %v, want both at 1ms", at)
	}
}

// TestKernelCancelRacingBarrierFlush cancels a timer at the very instant
// another event lands, from an event that ran just before: the cancelled
// timer must not fire, the other must, and the drained queue must not
// wedge the kernel. (A barrier flush merged that other event until the
// kernel lost its windows; the name is kept.)
func TestKernelCancelRacingBarrierFlush(t *testing.T) {
	s := New(kernelEpoch)
	fired := []string{}
	at := kernelEpoch.Add(25 * time.Millisecond)
	cancelled := s.At(at, func() { fired = append(fired, "cancelled-timer") })
	s.After(2*time.Millisecond, func() { cancelled.Cancel() })
	s.After(2*time.Millisecond, func() {
		s.AtCall(at, func(any) { fired = append(fired, "delivery") }, nil)
	})
	if err := s.Kernel().RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "delivery" {
		t.Fatalf("fired = %v, want [delivery]", fired)
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("pending = %d after drain", n)
	}
}

// TestKernelAfterCallReuseAcrossBarriers exercises the pooled no-handle
// path when recycled events carry arguments across RunUntil calls: every
// delivery must see its own argument even though the Event structs are
// freelist-reused from one run to the next.
func TestKernelAfterCallReuseAcrossBarriers(t *testing.T) {
	s := New(kernelEpoch)
	k := s.Kernel()
	const rounds = 50
	seen := make([]int, 0, rounds)
	var fire func(any)
	fire = func(arg any) {
		i, _ := arg.(int)
		seen = append(seen, i)
		if i+1 < rounds {
			// Two events in flight per hop, so the freelist is reused
			// for a different argument than the one it last carried.
			s.AfterCall(3*time.Millisecond, fire, i+1)
			s.AfterCall(time.Millisecond, func(any) {}, -1)
		}
	}
	s.AfterCall(0, fire, 0)
	for at := time.Millisecond; at <= time.Second; at += time.Millisecond {
		if err := k.RunUntil(kernelEpoch.Add(at), 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != rounds {
		t.Fatalf("ran %d rounds, want %d", len(seen), rounds)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("round %d saw argument %d", i, v)
		}
	}
	if k.Executed() != 2*rounds-1 {
		t.Fatalf("Executed() = %d, want %d", k.Executed(), 2*rounds-1)
	}
}

// TestKernelCancelOnlyEventThenIdle pins the fully-cancelled-queue path:
// a kernel whose only pending event is cancelled must reap it without
// stalling the run or firing anything, and idle to the deadline.
func TestKernelCancelOnlyEventThenIdle(t *testing.T) {
	s := New(kernelEpoch)
	ran := false
	ev := s.At(kernelEpoch.Add(50*time.Millisecond), func() { ran = true })
	s.After(time.Millisecond, func() { ev.Cancel() })
	if err := s.Kernel().RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("pending = %d after drain", n)
	}
	if !s.Now().Equal(kernelEpoch.Add(time.Second)) {
		t.Fatalf("clock stopped at %v", s.Now())
	}
}

// TestKernelErrHorizon: exceeding maxEvents before the deadline returns
// ErrHorizon.
func TestKernelErrHorizon(t *testing.T) {
	s := New(kernelEpoch)
	var tick func()
	tick = func() { s.After(time.Microsecond, tick) }
	s.After(0, tick)
	if err := s.Kernel().RunUntil(kernelEpoch.Add(time.Hour), 100); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
}

// TestKernelErrHorizonWithinWindow: the budget bounds events, not
// instants. A zero-delay self-rescheduling event never advances the
// clock, so a budget checked only when time moves would spin forever; the
// run stops on exactly the budget, at the instant it spun on.
func TestKernelErrHorizonWithinWindow(t *testing.T) {
	s := New(kernelEpoch)
	ran := 0
	var spin func()
	spin = func() { ran++; s.After(0, spin) }
	s.After(time.Millisecond, spin)
	if err := s.Kernel().RunUntil(kernelEpoch.Add(time.Hour), 100); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if ran != 100 {
		t.Fatalf("%d events ran, want exactly the budget of 100", ran)
	}
	if !s.Now().Equal(kernelEpoch.Add(time.Millisecond)) {
		t.Fatalf("clock at %v after the budget, want the spinning instant", s.Now())
	}
}

// TestKernelBudgetExactOnTwoLanes: the budget is one count over the
// kernel, whoever schedules. Two chains that each reschedule themselves
// with zero delay run exactly the budget between them.
func TestKernelBudgetExactOnTwoLanes(t *testing.T) {
	s := New(kernelEpoch)
	ran := [2]int{}
	for i := range ran {
		var spin func()
		spin = func() { ran[i]++; s.After(0, spin) }
		s.After(0, spin)
	}
	if err := s.Kernel().RunUntil(kernelEpoch.Add(time.Hour), 100); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if ran != [2]int{50, 50} || s.Kernel().Executed() != 100 {
		t.Fatalf("chains ran %v (Executed %d), want 50 each, exactly the budget of 100", ran, s.Kernel().Executed())
	}
}

// TestKernelIdleAdvancesClocks: with nothing scheduled, RunUntil leaves
// the kernel's clock, and every lane handle's, at the deadline.
func TestKernelIdleAdvancesClocks(t *testing.T) {
	s := New(kernelEpoch)
	k := s.Kernel()
	deadline := kernelEpoch.Add(3 * time.Second)
	if err := k.RunUntil(deadline, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Now().Equal(deadline) || !k.Now().Equal(deadline) {
		t.Fatalf("lane clock %v, kernel clock %v, want %v", s.Now(), k.Now(), deadline)
	}
	// An earlier deadline never winds the clock back.
	if err := k.RunUntil(kernelEpoch, 0); err != nil {
		t.Fatal(err)
	}
	if !k.Now().Equal(deadline) {
		t.Fatalf("kernel clock %v after an earlier deadline, want %v", k.Now(), deadline)
	}
}

// BenchmarkKernelLocalEvents measures the pooled hot path; steady-state
// must be allocation-free.
func BenchmarkKernelLocalEvents(b *testing.B) {
	s := New(kernelEpoch)
	k := s.Kernel()
	var tick func(any)
	tick = func(any) { s.AfterCall(time.Millisecond, tick, nil) }
	s.AfterCall(0, tick, nil)
	deadline := kernelEpoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deadline = deadline.Add(time.Millisecond)
		if err := k.RunUntil(deadline, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKernelMassBarrierWakeOrder: a hub wakes a subset of quiet nodes
// (pulling their far-future next events to near-term ones, in an order
// unrelated to the nodes' indices) while a large fleet ticks in lockstep
// and reports to the hub, the run cut into millisecond RunUntil slices;
// every message must run exactly at its instant. (A window barrier merged
// these messages until the kernel lost its windows; the name is kept.)
func TestKernelMassBarrierWakeOrder(t *testing.T) {
	const (
		delay = time.Millisecond
		fleet = 1024
		quiet = 64
		ticks = 8
	)
	s := New(kernelEpoch)
	var late int
	var maxSkew time.Duration
	check := func(expect time.Time) func(any) {
		return func(any) {
			if d := s.Now().Sub(expect); d != 0 {
				late++
				maxSkew = max(maxSkew, d)
			}
		}
	}
	// Quiet nodes idle on varied far-future timers.
	for i := 0; i < quiet; i++ {
		s.At(kernelEpoch.Add(4*time.Second+time.Duration(i)*13*time.Millisecond), func() {})
	}
	// Fleet nodes tick in lockstep (like fleet-wide maintenance timers)
	// and report each tick to the hub one delay later.
	for i := 0; i < fleet; i++ {
		for n := 1; n <= ticks; n++ {
			s.At(kernelEpoch.Add(time.Duration(n)*30*time.Millisecond), func() {
				expect := s.Now().Add(delay)
				s.AtCall(expect, check(expect), nil)
			})
		}
	}
	// Just before each fleet tick, the hub pings a rotating subset of the
	// quiet nodes, with instants ordered against the nodes' timer order.
	for n := 1; n <= ticks; n++ {
		s.At(kernelEpoch.Add(time.Duration(n)*30*time.Millisecond-delay/2), func() {
			for j := 0; j < quiet; j++ {
				if (j*7+n)%3 != 0 {
					continue
				}
				expect := s.Now().Add(delay + time.Duration(quiet-j)*100*time.Microsecond)
				s.AtCall(expect, check(expect), nil)
			}
		})
	}
	k := s.Kernel()
	for at := kernelEpoch.Add(time.Millisecond); at.Before(kernelEpoch.Add(300 * time.Millisecond)); at = at.Add(time.Millisecond) {
		if err := k.RunUntil(at, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunUntil(kernelEpoch.Add(12*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if late > 0 {
		t.Fatalf("%d messages ran off their instant (max skew %v)", late, maxSkew)
	}
}

// traceHashes runs a seeded 8-node workload on one kernel and returns, per
// node, an FNV-64a hash of its (instant, label) trace, plus the events
// executed. Every draw comes from the running node's own stream and every
// record goes to its own trace. The mix covers each scheduling form: At
// and After with handles, AtCall and AfterCall, messages to any node
// exactly delay ahead and beyond it onto a millisecond grid (so messages
// from many nodes collide at one instant), cancellation of queued and
// already-run events, same-instant bursts, and scheduling from outside
// the run between deadlines.
func traceHashes(delay time.Duration) ([]uint64, int64) {
	const (
		nodes = 8
		limit = 400 // events a node may spawn from its own handlers
	)
	s := New(kernelEpoch)
	type nodeState struct {
		rng     *rand.Rand
		hash    hash.Hash64
		spawned int
		handles []*Event
	}
	st := make([]*nodeState, nodes)
	for i := range st {
		st[i] = &nodeState{rng: rand.New(rand.NewSource(int64(1000 + i))), hash: fnv.New64a()}
	}
	record := func(n *nodeState, label string) {
		fmt.Fprintf(n.hash, "%d %s\n", s.Now().Sub(kernelEpoch), label)
	}
	var act func(n *nodeState, label string)
	run := func(arg any) {
		p := arg.([2]any)
		act(p[0].(*nodeState), p[1].(string))
	}
	act = func(n *nodeState, label string) {
		record(n, label)
		for c := n.rng.Intn(4); c > 0 && n.spawned < limit; c-- {
			n.spawned++
			tag := fmt.Sprintf("%s.%d", label, n.spawned)
			now := s.Now()
			switch op := n.rng.Intn(10); op {
			case 0, 1:
				d := time.Duration(n.rng.Intn(5)) * time.Millisecond
				n.handles = append(n.handles, s.After(d, func() { act(n, "a"+tag) }))
			case 2:
				s.AtCall(now.Add(time.Duration(n.rng.Intn(3000))*time.Microsecond), run, [2]any{n, "c" + tag})
			case 3:
				s.AfterCall(0, run, [2]any{n, "z" + tag})
			case 4:
				// A burst at one instant, handle and no-handle forms mixed.
				at := now.Add(time.Duration(1+n.rng.Intn(2)) * time.Millisecond)
				for j := 0; j < 3; j++ {
					n.handles = append(n.handles, s.At(at, func() { act(n, fmt.Sprintf("b%s/%d", tag, j)) }))
					s.AtCall(at, run, [2]any{n, fmt.Sprintf("B%s/%d", tag, j)})
				}
			case 5, 6, 7:
				dst := st[n.rng.Intn(nodes)]
				at := now.Add(delay)
				if op != 5 {
					// Beyond the delay, on the millisecond grid.
					at = now.Add(delay + time.Duration(1+n.rng.Intn(4))*time.Millisecond).Truncate(time.Millisecond)
				}
				s.AtCall(at, run, [2]any{dst, "p" + tag})
			case 8:
				if len(n.handles) > 0 {
					n.handles[n.rng.Intn(len(n.handles))].Cancel()
				}
			case 9:
				// Schedule, then cancel at once: never runs.
				s.After(time.Millisecond, func() { act(n, "never"+tag) }).Cancel()
			}
		}
	}
	for _, n := range st {
		n := n
		s.At(kernelEpoch, func() { act(n, "start") })
		s.AtCall(kernelEpoch.Add(time.Millisecond), run, [2]any{n, "start1"})
	}
	k := s.Kernel()
	for at := 15 * time.Millisecond; at <= 300*time.Millisecond; at += 15 * time.Millisecond {
		if err := k.RunUntil(kernelEpoch.Add(at), 0); err != nil {
			panic(err)
		}
		// Between runs, schedule from outside for every node.
		for i, n := range st {
			if int(at/time.Millisecond)%(i+2) == 0 {
				n := n
				s.After(time.Duration(i)*time.Millisecond, func() { act(n, "outside") })
			}
		}
	}
	if err := k.RunUntil(kernelEpoch.Add(time.Hour), 0); err != nil {
		panic(err)
	}
	sums := make([]uint64, nodes)
	for i, n := range st {
		sums[i] = n.hash.Sum64()
	}
	return sums, k.Executed()
}

// TestKernelLaneTracesGolden pins the kernel's one event order, (time,
// schedule sequence): each node's trace hash and the executed count with
// messages 0 and 1 ms ahead. The literals were recorded on the shared-lane
// Scheduler before the kernel lost its conservative windows, so they also
// pin that the one order is the order every shared-lane golden was taken
// in. A change to the queue's order, the past clamp or the freelist moves
// some node's hash.
func TestKernelLaneTracesGolden(t *testing.T) {
	golden := []struct {
		delay    time.Duration
		nodes    []uint64
		executed int64
	}{
		{0, []uint64{
			0xffb5784e9debf7a1, 0x7d879b4fd816a48e, 0x89816d2ce2788921, 0x11f8ff2b46c82e84,
			0xfc53b0279806a614, 0xde91389c3da6443e, 0xc40c04e7e19b9fb9, 0xda28a757f3edb2a1,
		}, 4159},
		{time.Millisecond, []uint64{
			0x2634865db662f6e5, 0x74dcea38ac5be246, 0xc9909bfbee34fbb2, 0x90063277f9f8d668,
			0x00bff2c201ed52b5, 0x8e26f936c5153335, 0x29dc593d047db662, 0x11491e3301711a3b,
		}, 4163},
	}
	for _, g := range golden {
		sums, executed := traceHashes(g.delay)
		for i, sum := range sums {
			if sum != g.nodes[i] {
				t.Errorf("delay %v, node %d: trace hash %#x, recorded %#x", g.delay, i, sum, g.nodes[i])
			}
		}
		if executed != g.executed {
			t.Errorf("delay %v: %d events executed, recorded %d", g.delay, executed, g.executed)
		}
	}
}

// TestPermuteTiesReordersOnlyTies: under a permutation seed, events still
// run in instant order and every event runs once; within an instant the
// order is the seed's — the same for the same seed, another for another
// seed — and seed 0 is the schedule order. An event scheduled for the
// instant being run runs after the one that scheduled it.
func TestPermuteTiesReordersOnlyTies(t *testing.T) {
	order := func(seed uint64) []string {
		s := New(kernelEpoch)
		s.Kernel().PermuteTies(seed)
		var got []string
		for i := 0; i < 48; i++ {
			at := kernelEpoch.Add(time.Duration(i%3) * time.Millisecond)
			tag := fmt.Sprintf("%d@%d", i, i%3)
			s.At(at, func() {
				got = append(got, tag)
				s.After(0, func() { got = append(got, tag+"+") })
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	base := order(0)
	for i, tag := range base[:32] {
		// Schedule order: the 16 events of instant 0 and each one's
		// follow-up, scheduled as the instant runs, after all of them.
		want := fmt.Sprintf("%d@0", 3*i)
		if i >= 16 {
			want = fmt.Sprintf("%d@0+", 3*(i-16))
		}
		if tag != want {
			t.Fatalf("seed 0: event %d is %s, want %s (schedule order)", i, tag, want)
		}
	}
	var differs bool
	for seed := uint64(1); seed <= 4; seed++ {
		got := order(seed)
		if !slices.Equal(got, order(seed)) {
			t.Fatalf("seed %d: two runs ran in two orders", seed)
		}
		if !slices.Equal(sorted(got), sorted(base)) {
			t.Fatalf("seed %d ran %v, want the events of %v", seed, got, base)
		}
		ran := map[string]bool{}
		for i, tag := range got {
			var n, at int
			fmt.Sscanf(tag, "%d@%d", &n, &at)
			if i > 0 {
				var pn, pat int
				fmt.Sscanf(got[i-1], "%d@%d", &pn, &pat)
				if at < pat {
					t.Fatalf("seed %d: %s ran after %s", seed, tag, got[i-1])
				}
			}
			if tag[len(tag)-1] == '+' && !ran[tag[:len(tag)-1]] {
				t.Fatalf("seed %d: %s ran before the event that scheduled it", seed, tag)
			}
			ran[tag] = true
		}
		differs = differs || !slices.Equal(got, base)
	}
	if !differs {
		t.Error("no seed changed the order of same-instant events")
	}
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}
