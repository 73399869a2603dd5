package simclock

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// rigTicks is how long the kernel rig's neighbour lanes keep ticking.
const rigTicks = 10 * time.Second

// laneRigs are the two substrates every lane-semantics case runs on: the
// Scheduler's shared lane, and one lane of a multi-lane Kernel whose
// neighbours tick through the first rigTicks so the lane under test really
// is cut into lookahead windows (and then fall silent, so a drive to a
// far-future deadline ends). Each returns a fresh lane and the call that
// drives it to a deadline.
var laneRigs = []struct {
	name string
	make func() (*Lane, func(time.Time) error)
}{
	{"scheduler", func() (*Lane, func(time.Time) error) {
		s := New(origin)
		return s.Lane, func(d time.Time) error { return s.RunUntil(d, 0) }
	}},
	{"kernel-lane", func() (*Lane, func(time.Time) error) {
		k := NewKernel(origin, KernelOpts{Workers: 2, Seed: 1})
		k.SetLookahead(10 * time.Millisecond)
		for _, l := range []*Lane{k.AddLane(), k.AddLane(), k.AddLane()} {
			l := l
			var tick func(any)
			tick = func(any) {
				if l.Now().Before(origin.Add(rigTicks)) {
					l.AfterCall(7*time.Millisecond, tick, nil)
				}
			}
			l.AfterCall(0, tick, nil)
		}
		return k.AddLane(), func(d time.Time) error { return k.RunUntil(d, 0) }
	}},
}

// TestLaneSemantics is the one table of single-lane scheduling rules —
// time order, schedule-order ties, past clamping, cancellation, nested
// scheduling — checked on both substrates: there is one event queue, so
// there is one set of rules.
func TestLaneSemantics(t *testing.T) {
	horizon := origin.Add(rigTicks)
	cases := []struct {
		name string
		run  func(t *testing.T, rig func() (*Lane, func(time.Time) error))
	}{
		{"ordering", func(t *testing.T, rig func() (*Lane, func(time.Time) error)) {
			l, drive := rig()
			var got []int
			for _, sec := range []int{3, 1, 2} {
				sec := sec
				l.After(time.Duration(sec)*time.Second, func() {
					got = append(got, sec)
					if want := origin.Add(time.Duration(sec) * time.Second); !l.Now().Equal(want) {
						t.Errorf("event %d saw clock %v, want %v", sec, l.Now(), want)
					}
				})
			}
			if err := drive(horizon); err != nil {
				t.Fatal(err)
			}
			if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Fatalf("order = %v, want [1 2 3]", got)
			}
			if !l.Now().Equal(horizon) {
				t.Errorf("Now = %v after the run, want the deadline %v", l.Now(), horizon)
			}
		}},
		{"tie-break", func(t *testing.T, rig func() (*Lane, func(time.Time) error)) {
			// Equal instants run in schedule order, handle and no-handle
			// forms sharing one sequence.
			l, drive := rig()
			var got []int
			at := origin.Add(time.Second)
			for i := 0; i < 10; i++ {
				i := i
				if i%2 == 0 {
					l.At(at, func() { got = append(got, i) })
				} else {
					l.AtCall(at, func(arg any) { got = append(got, arg.(int)) }, i)
				}
			}
			if err := drive(horizon); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if len(got) != 10 || got[i] != i {
					t.Fatalf("tie-break order = %v", got)
				}
			}
		}},
		{"past-clamp", func(t *testing.T, rig func() (*Lane, func(time.Time) error)) {
			l, drive := rig()
			ran := false
			l.After(time.Second, func() {
				// Scheduling in the past must clamp to now, not rewind the clock.
				ev := l.At(origin, func() {
					ran = true
					if l.Now().Before(origin.Add(time.Second)) {
						t.Error("clock rewound")
					}
				})
				if !ev.At().Equal(origin.Add(time.Second)) {
					t.Errorf("past event scheduled for %v, want now", ev.At())
				}
			})
			if err := drive(horizon); err != nil {
				t.Fatal(err)
			}
			if !ran {
				t.Error("clamped event never ran")
			}
		}},
		{"cancel", func(t *testing.T, rig func() (*Lane, func(time.Time) error)) {
			l, drive := rig()
			l.After(time.Second, func() { t.Error("cancelled event ran") }).Cancel()
			// Cancelling from inside an earlier event works the same.
			late := l.After(3*time.Second, func() { t.Error("event cancelled mid-run ran") })
			live := false
			l.After(2*time.Second, func() { live = true; late.Cancel() })
			if err := drive(horizon); err != nil {
				t.Fatal(err)
			}
			if !live {
				t.Error("live event behind a cancelled head did not run")
			}
			if n := len(l.events); n != 0 {
				t.Errorf("%d events left queued after the run", n)
			}
		}},
		{"lazy-cancel", func(t *testing.T, rig func() (*Lane, func(time.Time) error)) {
			// Cancel marks; it does not unlink. A cancelled event that is
			// not the head stays queued — Scheduler.Pending, which is
			// len(l.events), counts it — until it surfaces, is reaped
			// there, and never runs; nextAt never reports its instant.
			l, drive := rig()
			var got []string
			l.After(time.Second, func() { got = append(got, "a") })
			l.After(3*time.Second, func() { got = append(got, "cancelled") }).Cancel()
			l.After(5*time.Second, func() { got = append(got, "c") })
			if n := len(l.events); n != 3 {
				t.Fatalf("%d events queued with a cancelled one behind the head, want 3", n)
			}
			if at, ok := l.nextAt(); !ok || !at.Equal(origin.Add(time.Second)) || len(l.events) != 3 {
				t.Fatalf("nextAt = %v, %v with %d queued; want the live head at +1s and nothing reaped", at, ok, len(l.events))
			}
			if err := drive(origin.Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			// The cancelled event surfaced when "a" left, and was reaped by
			// the look for the next event.
			if at, ok := l.nextAt(); !ok || !at.Equal(origin.Add(5*time.Second)) || len(l.events) != 1 {
				t.Fatalf("after the head ran: nextAt = %v, %v with %d queued; want +5s and 1", at, ok, len(l.events))
			}
			if err := drive(horizon); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[a c]" || len(l.events) != 0 {
				t.Fatalf("ran %v with %d left queued, want [a c] and 0", got, len(l.events))
			}
		}},
		{"nested-scheduling", func(t *testing.T, rig func() (*Lane, func(time.Time) error)) {
			// Events scheduled from inside callbacks fire exactly once
			// each and in time order.
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 50; trial++ {
				l, drive := rig()
				scheduled, count := 1, 0
				var last time.Time
				var spawn func(depth int)
				spawn = func(depth int) {
					count++
					if l.Now().Before(last) {
						t.Fatal("time went backwards")
					}
					last = l.Now()
					if depth < 3 {
						for i, n := 0, rng.Intn(3); i < n; i++ {
							d := time.Duration(rng.Intn(1000)) * time.Millisecond
							scheduled++
							l.After(d, func() { spawn(depth + 1) })
						}
					}
				}
				l.After(0, func() { spawn(0) })
				if err := drive(horizon); err != nil {
					t.Fatal(err)
				}
				if count != scheduled {
					t.Fatalf("trial %d: %d events ran, %d scheduled", trial, count, scheduled)
				}
			}
		}},
	}
	for _, c := range cases {
		for _, r := range laneRigs {
			t.Run(c.name+"/"+r.name, func(t *testing.T) { c.run(t, r.make) })
		}
	}
}

func TestRunBudget(t *testing.T) {
	s := New(origin)
	// A self-perpetuating event chain must trip the budget.
	var tick func()
	tick = func() { s.After(time.Millisecond, tick) }
	s.After(0, tick)
	err := s.Run(100)
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("Run err = %v, want ErrHorizon", err)
	}

	// A finite chain drains inside the budget; Run, unlike RunUntil,
	// leaves the clock at the last event.
	s = New(origin)
	s.After(3*time.Second, func() {})
	s.After(time.Second, func() {})
	if err := s.Run(2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != origin.Add(3*time.Second) || s.Pending() != 0 {
		t.Errorf("Now = %v, Pending = %d; want origin+3s, 0", s.Now(), s.Pending())
	}
}

// TestRunUntilBudget: the shared lane runs its whole RunUntil as one
// window, and the budget still counts single events inside it — a
// zero-delay livelock stops after exactly maxEvents.
func TestRunUntilBudget(t *testing.T) {
	s := New(origin)
	ran := 0
	var spin func()
	spin = func() { ran++; s.After(0, spin) }
	s.After(0, spin)
	if err := s.RunUntil(origin.Add(time.Hour), 100); !errors.Is(err, ErrHorizon) {
		t.Fatalf("RunUntil err = %v, want ErrHorizon", err)
	}
	if ran != 100 {
		t.Fatalf("%d events ran, want exactly the budget of 100", ran)
	}
	// RunUntil's ErrHorizon means "the budget was reached", even when the
	// last budgeted event also emptied the queue (Run differs: see above).
	s = New(origin)
	s.After(time.Second, func() {})
	if err := s.RunUntil(origin.Add(time.Hour), 1); !errors.Is(err, ErrHorizon) {
		t.Fatalf("RunUntil on an exact budget: err = %v, want ErrHorizon", err)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(origin)
	var got []int
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(5*time.Second, func() { got = append(got, 5) })
	deadline := origin.Add(2 * time.Second)
	if err := s.RunUntil(deadline, 0); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if !s.Now().Equal(deadline) {
		t.Errorf("Now = %v, want %v", s.Now(), deadline)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

func TestRunUntilCancelledHead(t *testing.T) {
	s := New(origin)
	ev := s.After(time.Second, func() { t.Error("cancelled event ran") })
	ev.Cancel()
	ran := false
	s.After(2*time.Second, func() { ran = true })
	if err := s.RunUntil(origin.Add(3*time.Second), 0); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !ran {
		t.Error("live event did not run")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestPropertyMonotoneFiring(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		s := New(origin)
		var fired []time.Time
		for _, d := range delaysMs {
			s.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		if err := s.Run(0); err != nil {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			return fired[i].Before(fired[j])
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := New(origin)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%100)*time.Millisecond, func() {})
		s.Step()
	}
}

// checkEventOrder verifies a lane queue's structural invariants: no slot
// orders before its parent, every slot's key is its event's instant on the
// kernel's integer time line, and no schedule sequence appears twice. It
// reports with Errorf, so events may call it from a worker goroutine.
func checkEventOrder(t *testing.T, l *Lane) {
	t.Helper()
	seqs := make(map[uint64]bool, len(l.events))
	for i, s := range l.events {
		if s.ev == nil {
			t.Errorf("events[%d] holds no event", i)
			return
		}
		if want := l.k.instant(s.ev.at); s.at != want {
			t.Errorf("events[%d] keyed %d, its event's instant %v is %d", i, s.at, s.ev.at, want)
		}
		if seqs[s.seq] {
			t.Errorf("events[%d] repeats schedule sequence %d", i, s.seq)
		}
		seqs[s.seq] = true
		if parent := (i - 1) / heapArity; i > 0 && s.before(l.events[parent]) {
			t.Errorf("queue order violated: events[%d] (%d, seq %d) orders before its parent events[%d] (%d, seq %d)",
				i, s.at, s.seq, parent, l.events[parent].at, l.events[parent].seq)
		}
	}
}

// TestLaneOrderMatchesReference is the differential test of the event
// queue: 12 000 seeded schedule operations — all four scheduling forms,
// instants that collide by the dozen, instants in the past, instants two
// centuries either side of the origin and past the end of the integer time
// line, cancellation of queued, head and already-run events, scheduling
// from inside callbacks and between drives — must run in exactly the order
// a stable sort of the schedule log by clamped instant gives, which is
// (time, schedule sequence). Each event also checks the clock it runs at.
func TestLaneOrderMatchesReference(t *testing.T) {
	const ops = 12000
	// The last instant a queue key can hold; later ones are pulled back to it.
	end := origin.Add(math.MaxInt64)
	for _, r := range laneRigs {
		t.Run(r.name, func(t *testing.T) {
			l, drive := r.make()
			rng := rand.New(rand.NewSource(14))
			var (
				planned   []time.Time // by schedule sequence: the instant the event must run at
				handles   []*Event    // nil for the no-handle forms
				cancelled []bool      // cancelled while still queued
				done      []bool
				ran       []int
			)
			idOf := make(map[*Event]int)

			pick := func() time.Time {
				now := l.Now()
				switch k := rng.Intn(100); {
				case k < 40: // a handful of distinct instants: long runs of ties
					return now.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
				case k < 55:
					return now
				case k < 70: // the past: clamped to now
					return now.Add(-time.Duration(rng.Int63n(int64(time.Second))))
				case k < 95:
					return now.Add(time.Duration(rng.Int63n(int64(2 * time.Second))))
				case k < 97:
					return origin.AddDate(200, 0, rng.Intn(3))
				case k < 99:
					return origin.AddDate(-200, 0, rng.Intn(3))
				default: // beyond the integer time line
					return origin.AddDate(400, 0, rng.Intn(3))
				}
			}
			cancel := func(id int) {
				handles[id].Cancel()
				if !done[id] {
					cancelled[id] = true
				}
			}
			var fire func(id int)
			schedule := func() {
				id := len(planned)
				at, form := pick(), rng.Intn(4)
				if form >= 2 {
					// The After forms take a delay, which saturates sooner
					// than an instant does: plan for the instant they compute.
					at = l.Now().Add(at.Sub(l.Now()))
				}
				delay := at.Sub(l.Now())
				var h *Event
				switch form {
				case 0:
					h = l.At(at, func() { fire(id) })
				case 1:
					l.AtCall(at, func(arg any) { fire(arg.(int)) }, id)
				case 2:
					h = l.After(delay, func() { fire(id) })
				case 3:
					l.AfterCall(delay, func(arg any) { fire(arg.(int)) }, id)
				}
				if at.Before(l.Now()) {
					at = l.Now()
				}
				if at.After(end) {
					at = end
				}
				planned, handles = append(planned, at), append(handles, h)
				cancelled, done = append(cancelled, false), append(done, false)
				if h != nil {
					idOf[h] = id
					if !h.At().Equal(at) {
						t.Errorf("event %d: handle reports %v, planned %v", id, h.At(), at)
					}
				}
			}
			fire = func(id int) {
				if done[id] || cancelled[id] {
					t.Errorf("event %d ran (already ran: %v, cancelled: %v)", id, done[id], cancelled[id])
				}
				if !l.Now().Equal(planned[id]) {
					t.Errorf("event %d ran at %v, planned %v", id, l.Now(), planned[id])
				}
				done[id] = true
				ran = append(ran, id)
				for n := rng.Intn(3); n > 0 && len(planned) < ops; n-- {
					schedule()
				}
				switch rng.Intn(8) {
				case 0: // any earlier handle: queued, or run already (a no-op)
					if victim := rng.Intn(len(handles)); handles[victim] != nil {
						cancel(victim)
					}
				case 1: // the event at the head of the queue
					if len(l.events) > 0 && !l.events[0].ev.pooled {
						cancel(idOf[l.events[0].ev])
					}
				}
				if len(ran)%101 == 0 {
					checkEventOrder(t, l)
				}
			}

			for round := 1; len(planned) < ops; round++ {
				for i := 0; i < 500 && len(planned) < ops; i++ {
					schedule()
					if h := handles[len(handles)-1]; h != nil && rng.Intn(10) == 0 {
						cancel(len(handles) - 1)
					}
				}
				checkEventOrder(t, l)
				if err := drive(origin.Add(time.Duration(round) * 400 * time.Millisecond)); err != nil {
					t.Fatal(err)
				}
				checkEventOrder(t, l)
			}
			if err := drive(end); err != nil {
				t.Fatal(err)
			}

			var want []int
			for id := range planned {
				if !cancelled[id] {
					want = append(want, id)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return planned[want[i]].Before(planned[want[j]]) })
			if len(ran) != len(want) {
				t.Fatalf("%d events ran, reference runs %d (of %d scheduled)", len(ran), len(want), len(planned))
			}
			for i := range want {
				if ran[i] != want[i] {
					t.Fatalf("run %d: event %d (planned %v), reference has event %d (planned %v)",
						i, ran[i], planned[ran[i]], want[i], planned[want[i]])
				}
			}
			if n := len(l.events); n != 0 {
				t.Errorf("%d events left queued", n)
			}
			if len(planned) < ops || len(want) == len(planned) {
				t.Errorf("schedule too tame: %d operations, %d cancelled", len(planned), len(planned)-len(want))
			}
		})
	}
}

// BenchmarkLaneQueue times one schedule plus one run on a queue held at a
// fixed depth (the classic hold model: every event run is replaced by one
// a random delay ahead). The simulator workloads run at a depth of several
// hundred; depth1 is the regime the older micro-benchmarks measure. Pooled
// events: steady state allocates nothing, and ci.sh gates that at depth512.
func BenchmarkLaneQueue(b *testing.B) {
	for _, depth := range []int{1, 512, 8192} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			s := New(origin)
			nop := func(any) {}
			rng := uint64(depth)
			hold := func() {
				s.AfterCall(time.Duration(RandNext(&rng)%uint64(time.Second)), nop, nil)
			}
			for i := 0; i < depth; i++ {
				hold()
			}
			// One extra round trip sizes the queue and the freelist for
			// the transient depth+1.
			hold()
			s.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hold()
				s.Step()
			}
			if s.Pending() != depth {
				b.Fatalf("queue depth drifted to %d", s.Pending())
			}
		})
	}
}
