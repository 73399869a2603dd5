package simclock

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// laneRigs are the two substrates every lane-semantics case runs on: the
// Scheduler's shared lane, and one lane of a multi-lane Kernel whose
// neighbours keep ticking so the lane under test really is cut into
// lookahead windows. Each returns a fresh lane and the call that drives
// it to a deadline.
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
			tick = func(any) { l.AfterCall(7*time.Millisecond, tick, nil) }
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
	horizon := origin.Add(10 * time.Second)
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
