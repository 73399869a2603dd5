// Package simclock provides a deterministic discrete-event simulation
// kernel: a virtual clock and an event scheduler with a stable ordering.
//
// All of the Athena emulation (internal/netsim, internal/athena,
// internal/experiment) runs on top of this kernel so that every experiment
// is exactly repeatable from a seed, independent of wall-clock time or
// goroutine interleaving. There is one engine — Kernel, whose Lanes are
// the only event queues (kernel.go) — in two layouts: one lane shared by
// every node (Scheduler, below) or one lane per node.
package simclock

import (
	"errors"
	"time"
)

// Clock exposes the current instant. Both the simulated scheduler and a
// wall-clock implementation satisfy it, so node logic can run in either
// world.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
}

// WallClock is a Clock backed by time.Now, for code paths (such as the TCP
// transport daemon) that run in real time.
type WallClock struct{}

var _ Clock = WallClock{}

// Now returns the wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// Event is a scheduled callback. The callback runs with its lane's clock
// already advanced to the event time.
type Event struct {
	at  time.Time
	seq uint64 // tie-break so equal-time events run in schedule order
	fn  func()

	// fnArg/arg are the no-handle form used by AtCall/AfterCall; such
	// events are recycled through the lane's freelist after running,
	// which is only safe because no caller can hold a handle to them.
	fnArg func(any)
	arg   any

	index     int // heap index; -1 once popped or cancelled
	cancelled bool
	pooled    bool
	nextFree  *Event
}

// Cancel prevents a pending event from running. Cancelling an event that
// already ran is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancelled = true
	}
}

// At reports the instant the event is scheduled for.
func (e *Event) At() time.Time { return e.at }

// eventHeap orders events by time, then by scheduling sequence.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// ErrHorizon is returned by Run when the event budget is exhausted before
// the event queue drains, which usually indicates a scheduling livelock.
var ErrHorizon = errors.New("simclock: event budget exhausted")

// Scheduler is the shared-lane layout of the kernel: a private Kernel
// with exactly one Lane that every node schedules on, so events run in
// global (time, schedule order). It is the engine behind the classic
// figures and most tests. All scheduling methods (At, After, AtCall,
// AfterCall, Now) are the lane's own. The zero value is not usable;
// create one with New.
type Scheduler struct{ *Lane }

var _ Clock = (*Scheduler)(nil)

// New returns a Scheduler whose clock starts at the given origin.
func New(origin time.Time) *Scheduler {
	return &Scheduler{NewKernel(origin, KernelOpts{}).AddLane()}
}

// Kernel exposes the one-lane kernel underneath, for callers (netsim)
// that drive any lane layout through the same type.
func (s *Scheduler) Kernel() *Kernel { return s.k }

// Pending reports how many events are queued (including cancelled ones not
// yet reaped).
func (s *Scheduler) Pending() int { return len(s.events) }

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event ran.
func (s *Scheduler) Step() bool {
	if _, ok := s.nextAt(); !ok {
		return false
	}
	s.runOne()
	// Keep the kernel's committed view in step: no RunUntil barrier does
	// it for a hand-stepped lane.
	s.k.now = s.now
	s.k.executed++
	return true
}

// Run executes events until the queue drains or maxEvents have run. A
// maxEvents of 0 means no budget. It returns ErrHorizon if the budget was
// exhausted with events still pending.
func (s *Scheduler) Run(maxEvents int) error {
	for ran := 1; s.Step(); ran++ {
		if ran == maxEvents {
			if s.Pending() > 0 {
				return ErrHorizon
			}
			return nil
		}
	}
	return nil
}

// RunUntil executes events with time at or before deadline, leaving later
// events queued and the clock at the deadline. It returns ErrHorizon if
// maxEvents (0 = unlimited) ran before reaching the deadline.
func (s *Scheduler) RunUntil(deadline time.Time, maxEvents int) error {
	return s.k.RunUntil(deadline, maxEvents)
}
