// The deterministic kernel: the repo's one event engine. A Kernel owns
// one clock and one queue of events ordered by (time, schedule sequence),
// and runs them on the calling goroutine. Every node of a run schedules
// through the kernel's one Lane, a message delivery like any timer, so a
// run is a pure function of the schedule — of (seed, topology) for a
// seeded workload — and simultaneous events run in the order they were
// scheduled.
package simclock

import (
	"math"
	"time"
)

// splitmix64 advances the splitmix64 generator and returns the next
// 64-bit output: the seed derivation primitive for per-consumer RNG
// streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one splitmix64 round — the deterministic
// stream-derivation helper behind netsim's per-link loss streams and
// A10's per-node tickers.
func Mix64(x uint64) uint64 {
	s := x
	return splitmix64(&s)
}

// Float64From maps a 64-bit draw onto [0, 1) with 53-bit precision.
func Float64From(bits uint64) float64 {
	return float64(bits>>11) / (1 << 53)
}

// RandNext advances a splitmix64 stream in place and returns its next
// output. Streams seeded with Mix64 and advanced with RandNext give
// every consumer (for example each netsim link) an independent
// deterministic sequence regardless of global event interleaving.
func RandNext(state *uint64) uint64 {
	return splitmix64(state)
}

// Lane is the kernel's scheduling handle: every node of a run schedules
// through the kernel's one lane, onto its one queue.
type Lane struct{ k *Kernel }

var _ Clock = (*Lane)(nil)

// Now returns the kernel's virtual time: the instant of the event being
// executed while a run is in progress, and the committed time between
// runs.
func (l *Lane) Now() time.Time { return l.k.now }

// Kernel returns the kernel the lane schedules on.
func (l *Lane) Kernel() *Kernel { return l.k }

// enqueue stamps ev with instant t — clamped to the current time, so
// scheduling in the past runs next instead of rewinding the clock — and
// queues it under (t as a kernel instant, next schedule sequence). The key
// is taken after the clamp, so it is the instant the event runs at. An
// instant past the end of the integer time line is pulled back to that
// end, where it runs in schedule order with any other such event.
func (l *Lane) enqueue(ev *Event, t time.Time) {
	k := l.k
	if t.Before(k.now) {
		t = k.now
	}
	at := k.instant(t)
	if at == math.MaxInt64 {
		t = k.origin.Add(time.Duration(at))
	}
	ev.at = t
	key := k.seq
	if k.permute != 0 {
		key = Mix64(key ^ k.permute)
	}
	k.events.push(slot{at: at, seq: key, ev: ev})
	k.seq++
}

// At schedules fn at instant t (clamped to the current time) and returns
// a cancellable handle.
func (l *Lane) At(t time.Time, fn func()) *Event {
	ev := &Event{fn: fn}
	l.enqueue(ev, t)
	return ev
}

// After schedules fn d after the current time.
func (l *Lane) After(d time.Duration, fn func()) *Event {
	return l.At(l.k.now.Add(d), fn)
}

// AtCall schedules fn(arg) at instant t without returning a handle. The
// event cannot be cancelled, which lets the kernel recycle it through its
// freelist — a hot send path schedules without allocating. fn is
// typically a stored method value, so the call itself captures nothing.
func (l *Lane) AtCall(t time.Time, fn func(any), arg any) {
	k := l.k
	ev := k.free
	if ev != nil {
		k.free = ev.nextFree
	} else {
		ev = new(Event)
	}
	*ev = Event{fnArg: fn, arg: arg, pooled: true}
	l.enqueue(ev, t)
}

// AfterCall schedules fn(arg) d after the current time with AtCall's
// pooled semantics.
func (l *Lane) AfterCall(d time.Duration, fn func(any), arg any) {
	l.AtCall(l.k.now.Add(d), fn, arg)
}

// Post schedules fn(arg) at instant t: AtCall on dst.
//
// Deprecated: ignored; bench/ compiles against it. Every lane is the
// kernel's one lane, so use AtCall.
func (l *Lane) Post(dst *Lane, t time.Time, fn func(any), arg any) {
	dst.AtCall(t, fn, arg)
}

// KernelOpts configures a Kernel.
type KernelOpts struct {
	// Deprecated: ignored; bench/ compiles against it.
	Workers int
	// Deprecated: ignored; bench/ compiles against it.
	Seed uint64
}

// Kernel is the deterministic event kernel: one clock and one queue.
// Schedule on it through its lane (Scheduler wraps a kernel and its lane)
// and drive it with RunUntil.
type Kernel struct {
	// origin is the zero of the integer time line the event queue is
	// keyed on (see instant).
	origin time.Time
	now    time.Time
	lane   Lane

	// events is the one event queue, seq the schedule sequence, free the
	// freelist of pooled events.
	events eventHeap
	seq    uint64
	free   *Event
	// permute, when not 0, orders same-instant events by
	// Mix64(seq ^ permute) instead of seq (PermuteTies).
	permute uint64

	executed int64
}

// NewKernel returns an empty Kernel whose clock starts at origin.
func NewKernel(origin time.Time, _ KernelOpts) *Kernel {
	k := &Kernel{origin: origin, now: origin}
	k.lane.k = k
	return k
}

// PermuteTies makes events queued from now on that share an instant run
// in an order drawn from seed instead of the order they were scheduled
// in: each is keyed by Mix64(sequence ^ seed), a bijection, so the order
// stays total and a pure function of the seed. Events at different
// instants keep their order, and an event scheduled for the instant
// being run still runs after the one scheduling it. Seed 0 is the
// schedule order. It is a test seam: an order-independence sweep runs one
// scenario under several seeds and wants the same decisions.
func (k *Kernel) PermuteTies(seed uint64) { k.permute = seed }

// instant places t on the kernel's integer time line: nanoseconds since
// the origin. Within 292 years either side of the origin the result is
// exact, so two instants compare as time.Time.Compare orders them (both
// count the same nanoseconds; neither looks at a Location); beyond that
// time.Time.Sub saturates at the end of the line instead of wrapping.
func (k *Kernel) instant(t time.Time) int64 { return int64(t.Sub(k.origin)) }

// AddLane returns the kernel's lane.
//
// Deprecated: ignored; bench/ compiles against it. A kernel has one lane.
func (k *Kernel) AddLane() *Lane { return &k.lane }

// SetLookahead does nothing.
//
// Deprecated: ignored; bench/ compiles against it.
func (k *Kernel) SetLookahead(time.Duration) {}

// Now returns the kernel's virtual time.
func (k *Kernel) Now() time.Time { return k.now }

// Executed reports the total number of events run so far.
func (k *Kernel) Executed() int64 { return k.executed }

// nextAt reaps cancelled heads and returns the next pending event time;
// ok is false when the queue is drained. A cancelled event always has a
// handle, so it is never a pooled one.
func (k *Kernel) nextAt() (time.Time, bool) {
	for len(k.events) > 0 {
		ev := k.events[0].ev
		if !ev.cancelled {
			return ev.at, true
		}
		k.events.pop()
	}
	return time.Time{}, false
}

// runOne pops and runs the head event, advancing the clock to the event's
// instant. The head must be live: call nextAt first.
func (k *Kernel) runOne() {
	ev := k.events.pop()
	k.now = ev.at
	k.executed++
	if ev.pooled {
		// Copy out before releasing: the callback may schedule new
		// events that reuse this Event value.
		fn, arg := ev.fnArg, ev.arg
		*ev = Event{nextFree: k.free}
		k.free = ev
		fn(arg)
		return
	}
	ev.fn()
}

// RunUntil executes events with time at or before deadline in (time,
// schedule sequence) order, leaving later events queued and the clock at
// the deadline. It returns ErrHorizon as soon as maxEvents (0 =
// unlimited) have run, so a zero-delay self-rescheduling event cannot spin
// past the budget; the clock then stays at the last event run. Every event
// runs on the calling goroutine.
func (k *Kernel) RunUntil(deadline time.Time, maxEvents int) error {
	for ran := 0; maxEvents <= 0 || ran < maxEvents; ran++ {
		at, ok := k.nextAt()
		if !ok || at.After(deadline) {
			if k.now.Before(deadline) {
				k.now = deadline
			}
			return nil
		}
		k.runOne()
	}
	return ErrHorizon
}
