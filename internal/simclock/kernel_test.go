package simclock

import (
	"cmp"
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

// laneTrace records one lane's execution history. Each lane appends only
// from its own events.
type laneTrace struct {
	entries []string
}

func (tr *laneTrace) hit(l *Lane, tag string) {
	tr.entries = append(tr.entries, fmt.Sprintf("%d@%s:%s", l.idx, l.Now().Format(time.RFC3339Nano), tag))
}

// chatterWorkload drives a kernel with a deterministic cross-lane
// workload: every lane ticks periodically, and each tick posts a
// message to a peer lane chosen by a per-lane splitmix64 stream with a
// delay of at least the lookahead. Returns per-lane traces.
func chatterWorkload(t *testing.T, lanes int, seed uint64, dur time.Duration) []laneTrace {
	t.Helper()
	const lookahead = 10 * time.Millisecond
	k := NewKernel(kernelEpoch, KernelOpts{Seed: seed})
	k.SetLookahead(lookahead)
	traces := make([]laneTrace, lanes)
	rngs := make([]uint64, lanes)
	for i := 0; i < lanes; i++ {
		l := k.AddLane()
		rngs[i] = seed ^ uint64(i)*0x9e3779b97f4a7c15
		tr := &traces[i]
		idx := i
		var tick func()
		tick = func() {
			tr.hit(l, "tick")
			draw := splitmix64(&rngs[idx])
			peer := k.lanes[draw%uint64(lanes)]
			jitter := time.Duration(draw>>32%uint64(lookahead)) + lookahead
			l.Post(peer, l.Now().Add(jitter), func(arg any) {
				dst, _ := arg.(*Lane)
				traces[dst.idx].hit(dst, fmt.Sprintf("msg-from-%d", idx))
			}, peer)
			l.After(lookahead/2+time.Duration(draw%7)*time.Millisecond, tick)
		}
		l.After(time.Duration(i)*time.Millisecond, tick)
	}
	if err := k.RunUntil(kernelEpoch.Add(dur), 0); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	return traces
}

// requireSameTraces fails unless two runs left identical per-lane traces.
func requireSameTraces(t *testing.T, a, b []laneTrace) {
	t.Helper()
	for i := range a {
		if len(a[i].entries) != len(b[i].entries) {
			t.Fatalf("same seed diverged on lane %d: %d entries, then %d", i, len(a[i].entries), len(b[i].entries))
		}
		for j := range a[i].entries {
			if a[i].entries[j] != b[i].entries[j] {
				t.Fatalf("same seed diverged: lane %d entry %d: %q, then %q", i, j, a[i].entries[j], b[i].entries[j])
			}
		}
	}
}

// TestKernelDeterministicAcrossWorkers is the kernel's core claim on a
// 16-lane chatter workload: the same seed, run twice, produces an
// identical per-lane event trace. (It compared worker counts until the
// kernel lost its worker pool; the name is kept.)
func TestKernelDeterministicAcrossWorkers(t *testing.T) {
	requireSameTraces(t, chatterWorkload(t, 16, 0xa7e4a, 2*time.Second), chatterWorkload(t, 16, 0xa7e4a, 2*time.Second))
}

// TestKernelSeedChangesTieOrder sanity-checks that the tie-break is
// actually seeded: distinct seeds may produce distinct traces (they do
// on this workload), while equal seeds always match.
func TestKernelSeedChangesTieOrder(t *testing.T) {
	requireSameTraces(t, chatterWorkload(t, 8, 1, time.Second), chatterWorkload(t, 8, 1, time.Second))
}

// TestKernelRunsOnCallingGoroutine: a multi-lane kernel whose windows
// each hold 8 runnable lanes starts no goroutine. Every event samples
// runtime.NumGoroutine and must see the count from before RunUntil —
// with Workers set, which the kernel ignores.
func TestKernelRunsOnCallingGoroutine(t *testing.T) {
	const lanes = 8
	k := NewKernel(kernelEpoch, KernelOpts{Workers: 4, Seed: 3})
	k.SetLookahead(10 * time.Millisecond)
	var samples []int
	for i := 0; i < lanes; i++ {
		l := k.AddLane()
		for tick := 1; tick <= 5; tick++ {
			// Every lane ticks at the same instants: each window claims all 8.
			l.At(kernelEpoch.Add(time.Duration(tick)*20*time.Millisecond), func() {
				samples = append(samples, runtime.NumGoroutine())
			})
		}
	}
	before := runtime.NumGoroutine()
	if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5*lanes {
		t.Fatalf("%d events ran, want %d", len(samples), 5*lanes)
	}
	for i, n := range samples {
		if n != before {
			t.Fatalf("event %d saw %d goroutines, %d before RunUntil", i, n, before)
		}
	}
}

// TestKernelSingleLaneMatchesScheduler pins a hand-built 1-lane kernel
// to Scheduler on an identical schedule: same execution order, same
// observed clocks, whatever lookahead the kernel was told (one lane means
// one window).
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
	run := func(after func(time.Duration, func()) *Event, now func() time.Time, drive func()) []string {
		var got []string
		for _, p := range schedule {
			tag := p.tag
			after(p.at, func() {
				got = append(got, fmt.Sprintf("%s@%s", tag, now().Format(time.RFC3339Nano)))
			})
		}
		drive()
		return got
	}

	s := New(kernelEpoch)
	want := run(s.After, s.Now, func() {
		if err := s.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
			t.Fatal(err)
		}
	})

	k := NewKernel(kernelEpoch, KernelOpts{})
	l := k.AddLane()
	k.SetLookahead(2 * time.Millisecond)
	got := run(l.After, l.Now, func() {
		if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
			t.Fatal(err)
		}
	})

	if len(got) != len(want) {
		t.Fatalf("kernel ran %d events, scheduler %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: kernel %q, scheduler %q", i, got[i], want[i])
		}
	}
	if !k.Now().Equal(s.Now()) {
		t.Fatalf("clocks diverged: kernel %v, scheduler %v", k.Now(), s.Now())
	}
}

// TestKernelSimultaneousCrossLaneEvents pins the canonical merge order
// when several lanes post to one destination at the same instant: the
// order is a pure function of the seed, the same on a second run.
func TestKernelSimultaneousCrossLaneEvents(t *testing.T) {
	run := func() []string {
		k := NewKernel(kernelEpoch, KernelOpts{Seed: 42})
		k.SetLookahead(10 * time.Millisecond)
		const n = 8
		dst := k.AddLane()
		var got []string // only dst appends: single-lane owned
		at := kernelEpoch.Add(20 * time.Millisecond)
		for i := 0; i < n; i++ {
			src := k.AddLane()
			tag := fmt.Sprintf("src-%d", i)
			src.After(5*time.Millisecond, func() {
				src.Post(dst, at, func(any) { got = append(got, tag) }, nil)
			})
		}
		if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := run()
	if len(want) != 8 {
		t.Fatalf("expected 8 deliveries, got %d", len(want))
	}
	if got := run(); !slices.Equal(got, want) {
		t.Fatalf("second run delivered %q, first %q", got, want)
	}
}

// TestKernelAfterCallReuseAcrossBarriers exercises the pooled
// no-handle path when recycled events carry arguments across window
// barriers: every delivery must see its own argument even though the
// Event structs are freelist-reused between windows.
func TestKernelAfterCallReuseAcrossBarriers(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	k.SetLookahead(time.Millisecond)
	l := k.AddLane()
	const rounds = 50
	seen := make([]int, 0, rounds)
	var fire func(any)
	fire = func(arg any) {
		i, _ := arg.(int)
		seen = append(seen, i)
		if i+1 < rounds {
			// Spans several barriers per hop: delay > lookahead.
			l.AfterCall(3*time.Millisecond, fire, i+1)
		}
	}
	l.AfterCall(0, fire, 0)
	if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if len(seen) != rounds {
		t.Fatalf("ran %d rounds, want %d", len(seen), rounds)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("round %d saw argument %d", i, v)
		}
	}
	if k.Executed() != rounds {
		t.Fatalf("Executed() = %d, want %d", k.Executed(), rounds)
	}
}

// TestKernelCancelRacingBarrierFlush cancels a timer in the same window
// where a barrier flush merges a post onto the same lane at the very
// same instant: the cancelled timer must not fire, the merged post
// must, and a cancelled-then-drained lane must not wedge the kernel.
func TestKernelCancelRacingBarrierFlush(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{Seed: 7})
	k.SetLookahead(10 * time.Millisecond)
	a, b := k.AddLane(), k.AddLane()

	var cancelled *Event
	fired := []string{}
	at := kernelEpoch.Add(25 * time.Millisecond)
	cancelled = b.At(at, func() { fired = append(fired, "cancelled-timer") })
	// Lane b cancels its own timer inside the window that also produces
	// a's post targeting the same lane and instant.
	b.After(2*time.Millisecond, func() { cancelled.Cancel() })
	a.After(2*time.Millisecond, func() {
		a.Post(b, at, func(any) { fired = append(fired, "post") }, nil)
	})

	if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "post" {
		t.Fatalf("fired = %v, want [post]", fired)
	}
	if n := len(k.events); n != 0 {
		t.Fatalf("pending = %d after drain", n)
	}
}

// TestKernelCancelOnlyEventThenIdle pins the fully-cancelled-lane path:
// a lane whose only pending event is cancelled must be reaped from the
// queue without stalling the run or firing anything.
func TestKernelCancelOnlyEventThenIdle(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	k.SetLookahead(time.Millisecond)
	a, b := k.AddLane(), k.AddLane()
	ran := false
	ev := b.At(kernelEpoch.Add(50*time.Millisecond), func() { ran = true })
	a.After(time.Millisecond, func() { ev.Cancel() })
	if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !k.Now().Equal(kernelEpoch.Add(time.Second)) {
		t.Fatalf("clock stopped at %v", k.Now())
	}
}

// TestKernelErrHorizon: exceeding maxEvents before the deadline returns
// ErrHorizon.
func TestKernelErrHorizon(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	k.SetLookahead(time.Millisecond)
	l := k.AddLane()
	var tick func()
	tick = func() { l.After(time.Microsecond, tick) }
	l.After(0, tick)
	if err := k.RunUntil(kernelEpoch.Add(time.Hour), 100); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
}

// TestKernelErrHorizonWithinWindow: the budget bounds events, not
// windows. A zero-delay self-rescheduling event never leaves its window,
// so a budget checked only at barriers would spin forever; the window
// stops on the budget.
func TestKernelErrHorizonWithinWindow(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	k.SetLookahead(time.Millisecond)
	l, _ := k.AddLane(), k.AddLane()
	ran := 0
	var spin func()
	spin = func() { ran++; l.After(0, spin) }
	l.After(0, spin)
	if err := k.RunUntil(kernelEpoch.Add(time.Hour), 100); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if ran != 100 {
		t.Fatalf("%d events ran, want exactly the budget of 100", ran)
	}
}

// TestKernelBudgetExactOnTwoLanes: the budget is one count over the
// kernel, not a cap handed to each lane of a window. Two lanes that each
// reschedule themselves with zero delay run exactly the budget between
// them.
func TestKernelBudgetExactOnTwoLanes(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	k.SetLookahead(time.Millisecond)
	ran := 0
	for i := 0; i < 2; i++ {
		l := k.AddLane()
		var spin func()
		spin = func() { ran++; l.After(0, spin) }
		l.After(0, spin)
	}
	if err := k.RunUntil(kernelEpoch.Add(time.Hour), 100); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if ran != 100 || k.Executed() != 100 {
		t.Fatalf("%d events ran (Executed %d), want exactly the budget of 100", ran, k.Executed())
	}
}

// TestKernelIdleAdvancesClocks: with nothing scheduled, RunUntil leaves
// the kernel and every lane clock at the deadline, so idle nodes observe
// the same time on every lane layout.
func TestKernelIdleAdvancesClocks(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	a, b := k.AddLane(), k.AddLane()
	deadline := kernelEpoch.Add(3 * time.Second)
	if err := k.RunUntil(deadline, 0); err != nil {
		t.Fatal(err)
	}
	for i, l := range []*Lane{a, b} {
		if !l.Now().Equal(deadline) {
			t.Fatalf("lane %d clock %v, want %v", i, l.Now(), deadline)
		}
	}
	if !k.Now().Equal(deadline) {
		t.Fatalf("kernel clock %v, want %v", k.Now(), deadline)
	}
}

// TestKernelZeroLookahead pins the degenerate window: with no declared
// lookahead the kernel barriers at every distinct instant and still
// runs everything in order.
func TestKernelZeroLookahead(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	a, b := k.AddLane(), k.AddLane()
	var got []string
	a.After(2*time.Millisecond, func() { got = append(got, "a2") })
	b.After(1*time.Millisecond, func() { got = append(got, "b1") })
	a.After(3*time.Millisecond, func() {
		a.Post(b, a.Now().Add(time.Millisecond), func(any) { got = append(got, "post4") }, nil)
	})
	if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	want := []string{"b1", "a2", "post4"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestKernelPostClamp: a post violating the conservative contract
// (target instant inside the current window) is clamped to the window
// end rather than delivered into the past.
func TestKernelPostClamp(t *testing.T) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	k.SetLookahead(10 * time.Millisecond)
	a, b := k.AddLane(), k.AddLane()
	var at time.Time
	a.After(time.Millisecond, func() {
		// Target is in the past relative to the window: must clamp.
		a.Post(b, kernelEpoch, func(any) { at = b.Now() }, nil)
	})
	if err := k.RunUntil(kernelEpoch.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if at.Before(kernelEpoch.Add(time.Millisecond)) {
		t.Fatalf("post delivered at %v, before the posting window", at)
	}
}

// BenchmarkKernelLocalEvents measures the pooled same-lane hot path;
// steady-state must be allocation-free.
func BenchmarkKernelLocalEvents(b *testing.B) {
	k := NewKernel(kernelEpoch, KernelOpts{})
	k.SetLookahead(time.Millisecond)
	l := k.AddLane()
	var tick func(any)
	tick = func(any) { l.AfterCall(time.Millisecond, tick, nil) }
	l.AfterCall(0, tick, nil)
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

// TestKernelMassBarrierWakeOrder: a barrier merges posts into a subset
// of quiet lanes (pulling their far-future next events to near-term ones,
// in an order unrelated to the lanes' indices) while a large fleet of
// active lanes carries on, and every cross-lane post must land exactly at
// its posted instant. This scenario once stranded lanes in a heap of lanes
// the kernel kept, so their events ran seconds late.
func TestKernelMassBarrierWakeOrder(t *testing.T) {
	const (
		lookahead = time.Millisecond
		fleet     = 1024
		quiet     = 64
		ticks     = 8
	)
	k := NewKernel(kernelEpoch, KernelOpts{Seed: 42})
	k.SetLookahead(lookahead)
	hub := k.AddLane()
	var late int
	var maxSkew time.Duration
	check := func(l *Lane, expect time.Time) {
		if d := l.Now().Sub(expect); d != 0 {
			late++
			if d > maxSkew {
				maxSkew = d
			}
		}
	}

	// Quiet lanes idle on varied far-future timers.
	quietLanes := make([]*Lane, quiet)
	for i := range quietLanes {
		l := k.AddLane()
		quietLanes[i] = l
		l.At(kernelEpoch.Add(4*time.Second+time.Duration(i)*13*time.Millisecond), func() {})
	}
	// Fleet lanes tick in lockstep (like fleet-wide maintenance timers)
	// and report each tick to the hub; the report must arrive exactly one
	// lookahead after the tick.
	for i := 0; i < fleet; i++ {
		l := k.AddLane()
		for n := 1; n <= ticks; n++ {
			at := kernelEpoch.Add(time.Duration(n) * 30 * time.Millisecond)
			l.At(at, func() {
				expect := l.Now().Add(lookahead)
				l.Post(hub, expect, func(any) { check(hub, expect) }, nil)
			})
		}
	}
	// Just before each fleet tick, the hub pings a rotating subset of the
	// quiet lanes, with delivery instants ordered against the lanes' timer
	// order; the merge of those posts shares a barrier with the fleet's
	// activity and moves scattered lanes' next events at once.
	for n := 1; n <= ticks; n++ {
		n := n
		at := kernelEpoch.Add(time.Duration(n)*30*time.Millisecond - lookahead/2)
		hub.At(at, func() {
			for j, ql := range quietLanes {
				if (j*7+n)%3 != 0 {
					continue
				}
				ql := ql
				expect := hub.Now().Add(lookahead + time.Duration(quiet-j)*100*time.Microsecond)
				hub.Post(ql, expect, func(any) { check(ql, expect) }, nil)
			}
		})
	}
	// Step through the tick storms in small increments, then run out the
	// clock and demand punctuality.
	end := kernelEpoch.Add(12 * time.Second)
	for at := kernelEpoch.Add(time.Millisecond); at.Before(kernelEpoch.Add(300 * time.Millisecond)); at = at.Add(time.Millisecond) {
		if err := k.RunUntil(at, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunUntil(end, 0); err != nil {
		t.Fatal(err)
	}
	if late > 0 {
		t.Fatalf("%d cross-lane posts ran off their posted instant (max skew %v)", late, maxSkew)
	}
}

// laneTraceHashes runs a seeded 8-lane workload and returns, per lane, an
// FNV-64a hash of its (instant, label) trace, plus the events executed.
// Every draw comes from the running lane's own stream and every record goes
// to its own trace, so a lane's trace is a function of its own event order
// alone. The mix covers each scheduling form: At and After with handles,
// AtCall and AfterCall, Post to the poster's own lane, Post exactly one
// lookahead ahead and beyond it onto a millisecond grid (so posts from many
// lanes collide at one instant), cancellation of queued, running-lane and
// already-run events, same-instant bursts, and scheduling from outside the
// run between deadlines.
func laneTraceHashes(lookahead time.Duration) ([]uint64, int64) {
	const (
		lanes = 8
		limit = 400 // events a lane may spawn from its own handlers
	)
	k := NewKernel(kernelEpoch, KernelOpts{Seed: 0x51ab})
	k.SetLookahead(lookahead)
	type laneState struct {
		l       *Lane
		rng     *rand.Rand
		hash    hash.Hash64
		spawned int
		handles []*Event
	}
	st := make([]*laneState, lanes)
	for i := range st {
		st[i] = &laneState{l: k.AddLane(), rng: rand.New(rand.NewSource(int64(1000 + i))), hash: fnv.New64a()}
	}
	record := func(s *laneState, label string) {
		fmt.Fprintf(s.hash, "%d %s\n", s.l.Now().Sub(kernelEpoch), label)
	}
	var act func(s *laneState, label string)
	run := func(arg any) {
		p := arg.([2]any)
		act(p[0].(*laneState), p[1].(string))
	}
	act = func(s *laneState, label string) {
		record(s, label)
		for n := s.rng.Intn(4); n > 0 && s.spawned < limit; n-- {
			s.spawned++
			tag := fmt.Sprintf("%s.%d", label, s.spawned)
			now := s.l.Now()
			switch op := s.rng.Intn(10); op {
			case 0, 1:
				d := time.Duration(s.rng.Intn(5)) * time.Millisecond
				s.handles = append(s.handles, s.l.After(d, func() { act(s, "a"+tag) }))
			case 2:
				s.l.AtCall(now.Add(time.Duration(s.rng.Intn(3000))*time.Microsecond), run, [2]any{s, "c" + tag})
			case 3:
				s.l.AfterCall(0, run, [2]any{s, "z" + tag})
			case 4:
				// A burst at one instant, handle and no-handle forms mixed.
				at := now.Add(time.Duration(1+s.rng.Intn(2)) * time.Millisecond)
				for j := 0; j < 3; j++ {
					s.handles = append(s.handles, s.l.At(at, func() { act(s, fmt.Sprintf("b%s/%d", tag, j)) }))
					s.l.AtCall(at, run, [2]any{s, fmt.Sprintf("B%s/%d", tag, j)})
				}
			case 5, 6, 7:
				dst := st[s.rng.Intn(lanes)]
				at := now.Add(lookahead)
				if op != 5 {
					// Beyond the lookahead, on the millisecond grid.
					at = now.Add(lookahead + time.Duration(1+s.rng.Intn(4))*time.Millisecond).Truncate(time.Millisecond)
				}
				s.l.Post(dst.l, at, run, [2]any{dst, "p" + tag})
			case 8:
				if len(s.handles) > 0 {
					s.handles[s.rng.Intn(len(s.handles))].Cancel()
				}
			case 9:
				// Schedule, then cancel at once: never runs.
				s.l.After(time.Millisecond, func() { act(s, "never"+tag) }).Cancel()
			}
		}
	}
	for _, s := range st {
		s := s
		s.l.At(kernelEpoch, func() { act(s, "start") })
		s.l.AtCall(kernelEpoch.Add(time.Millisecond), run, [2]any{s, "start1"})
	}
	for at := 15 * time.Millisecond; at <= 300*time.Millisecond; at += 15 * time.Millisecond {
		if err := k.RunUntil(kernelEpoch.Add(at), 0); err != nil {
			panic(err)
		}
		// Between runs, schedule from outside onto every lane.
		for i, s := range st {
			if int(at/time.Millisecond)%(i+2) == 0 {
				s := s
				s.l.After(time.Duration(i)*time.Millisecond, func() { act(s, "outside") })
			}
		}
	}
	if err := k.RunUntil(kernelEpoch.Add(time.Hour), 0); err != nil {
		panic(err)
	}
	sums := make([]uint64, lanes)
	for i, s := range st {
		sums[i] = s.hash.Sum64()
	}
	return sums, k.Executed()
}

// TestKernelLaneTracesGolden pins the lane-per-node event order: each
// lane's trace hash and the executed count at lookahead 0 and 1 ms, recorded
// before the kernel's queues were merged into one. A change to the window,
// post-merge or per-lane schedule order moves some lane's hash.
func TestKernelLaneTracesGolden(t *testing.T) {
	golden := []struct {
		lookahead time.Duration
		lanes     []uint64
		executed  int64
	}{
		{0, []uint64{
			0xa07223ad93eceae5, 0x06ac6fb3705cbc22, 0xbfe67d7a05f8b988, 0x31f4a5595e3b49a9,
			0xe93a7d04870644fb, 0x59d4e6fb6c0d4407, 0x3c632538e20bfc25, 0x8e0e04f9e4c63737,
		}, 4158},
		{time.Millisecond, []uint64{
			0x2558191b1d843bfc, 0xfacb6c7243b678dd, 0x919843dc574d75d9, 0x1da69c6d7997834a,
			0xe3857a034cc514f9, 0x94159d95f49c1816, 0x44459a2f241703af, 0x8b4766aa3f3942aa,
		}, 4164},
	}
	for _, g := range golden {
		sums, executed := laneTraceHashes(g.lookahead)
		for i, sum := range sums {
			if sum != g.lanes[i] {
				t.Errorf("lookahead %v, lane %d: trace hash %#x, recorded %#x", g.lookahead, i, sum, g.lanes[i])
			}
		}
		if executed != g.executed {
			t.Errorf("lookahead %v: %d events executed, recorded %d", g.lookahead, executed, g.executed)
		}
	}
}

// TestCmpPostMatchesTimeOrder: the merge order compares kernel instants as
// integers. On random mailboxes — few distinct instants so every level of
// the comparison breaks ties, plus instants two centuries from the origin —
// it must sort exactly as the time.Time.Compare chain it replaced.
func TestCmpPostMatchesTimeOrder(t *testing.T) {
	type timed struct {
		at, postedAt time.Time
		post
	}
	byTime := func(a, b timed) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		if c := a.postedAt.Compare(b.postedAt); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.tie, b.tie), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	}
	k := NewKernel(kernelEpoch, KernelOpts{})
	rng := rand.New(rand.NewSource(14))
	instant := func() time.Time {
		switch k := rng.Intn(20); k {
		case 0:
			return kernelEpoch.AddDate(200, 0, rng.Intn(2))
		case 1:
			return kernelEpoch.AddDate(-200, 0, rng.Intn(2))
		case 2:
			return kernelEpoch.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		default:
			return kernelEpoch.Add(time.Duration(rng.Intn(4)) * time.Millisecond)
		}
	}
	for trial := 0; trial < 200; trial++ {
		mailbox := make([]timed, 64)
		for i := range mailbox {
			at, postedAt := instant(), instant()
			mailbox[i] = timed{at, postedAt, post{
				key: k.instant(at), posted: k.instant(postedAt),
				tie: uint64(rng.Intn(3)), src: int32(rng.Intn(3)), seq: uint64(i),
			}}
		}
		want := slices.Clone(mailbox)
		slices.SortFunc(want, byTime)
		slices.SortFunc(mailbox, func(a, b timed) int { return cmpPost(a.post, b.post) })
		for i := range want {
			if mailbox[i].seq != want[i].seq {
				t.Fatalf("trial %d, position %d: integer order has post %d (at %v, posted %v), time order post %d (at %v, posted %v)",
					trial, i, mailbox[i].seq, mailbox[i].at, mailbox[i].postedAt, want[i].seq, want[i].at, want[i].postedAt)
			}
		}
	}
}
