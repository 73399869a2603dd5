// Package simclock provides a deterministic discrete-event simulation
// kernel: a virtual clock and an event scheduler with a stable ordering.
//
// All of the Athena emulation (internal/netsim, internal/athena,
// internal/experiment) runs on top of this kernel so that every experiment
// is exactly repeatable from a seed, independent of wall-clock time or
// goroutine interleaving. There is one engine — Kernel, which owns the
// only clock and the only event queue (kernel.go) — and one order: (time,
// schedule sequence). Scheduler, below, is a kernel and its lane.
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

// Event is a scheduled callback. The callback runs with the kernel's
// clock already advanced to the event time.
type Event struct {
	at time.Time
	fn func()

	// fnArg/arg are the no-handle form used by AtCall/AfterCall; such
	// events are recycled through the kernel's freelist after running,
	// which is only safe because no caller can hold a handle to them.
	fnArg func(any)
	arg   any

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

// slot is one entry of the kernel's event queue. The whole sort key sits in
// the slot, so a sift compares integers it already has in hand and never
// follows ev.
type slot struct {
	// at is the event's instant on the kernel's integer time line
	// (Kernel.instant): it orders exactly as Event.at does.
	at int64
	// seq is the kernel's schedule sequence, or its permuted key
	// (Kernel.PermuteTies): equal instants run in its order.
	seq uint64
	ev  *Event
}

func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the fan-out of eventHeap. Four children per node halve the
// depth of a binary heap, and a node's children share a cache line or two.
const heapArity = 4

// eventHeap is the kernel's event queue: a d-ary min-heap of slots ordered
// by (instant, schedule sequence). The order is total — the kernel never
// reuses a sequence — so events leave in exactly that order whatever the
// shape of the heap.
type eventHeap []slot

func (h *eventHeap) push(s slot) {
	q := append(*h, s)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !s.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = s
	*h = q
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0].ev
	n := len(q) - 1
	s := q[n]
	q[n] = slot{} // drop the queue's reference to the event
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift the former last slot down from the root.
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		least, end := first, min(first+heapArity, n)
		for c := first + 1; c < end; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if !q[least].before(s) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = s
	return top
}

// ErrHorizon is returned by Run when the event budget is exhausted before
// the event queue drains, which usually indicates a scheduling livelock.
var ErrHorizon = errors.New("simclock: event budget exhausted")

// Scheduler is a private Kernel and its lane, with hand-stepping on top:
// the engine behind every simulated network and most tests. All
// scheduling methods (At, After, AtCall, AfterCall, Now, Kernel) are the
// lane's own. The zero value is not usable; create one with New.
type Scheduler struct{ *Lane }

var _ Clock = (*Scheduler)(nil)

// New returns a Scheduler whose clock starts at the given origin.
func New(origin time.Time) *Scheduler {
	return &Scheduler{&NewKernel(origin, KernelOpts{}).lane}
}

// Pending reports how many events are queued (including cancelled ones not
// yet reaped).
func (s *Scheduler) Pending() int { return len(s.k.events) }

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event ran.
func (s *Scheduler) Step() bool {
	if _, ok := s.k.nextAt(); !ok {
		return false
	}
	s.k.runOne()
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
