// The deterministic kernel: the repo's one event engine. A Kernel
// partitions the simulation into lanes — one per network node, or a
// single lane every node shares (Scheduler) — each with its own clock.
// Every lane's events live on the kernel's one queue, ordered by (time,
// schedule sequence) under one kernel-wide sequence, and run on the
// calling goroutine. The kernel advances in conservative windows
// [T, T+lookahead): cross-lane effects (message deliveries) are buffered
// as posts and scheduled on their destination lanes at the window barrier
// in a canonical order. Window boundaries, the schedule sequence and the
// post merge order are all derived from the seed and the schedule alone,
// so a Kernel run is a pure function of (seed, topology). The classic
// conservative-PDES safety argument applies: a cross-lane effect posted
// from a window always lands at or after the window's end (netsim
// guarantees post delay >= lookahead = the minimum link latency), so no
// lane can ever receive an event earlier than one it already executed. A
// one-lane kernel has no cross-lane effects at all, so its window is the
// whole run and its order is plain (time, schedule sequence).
package simclock

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// splitmix64 advances the splitmix64 generator and returns the next
// 64-bit output. It is the kernel's tie-break hash and the seed
// derivation primitive for per-link RNG streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one splitmix64 round — the deterministic
// stream-derivation helper shared by the kernel's tie-breaks and
// netsim's per-link loss streams.
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

// post is one cross-lane effect awaiting the window barrier.
type post struct {
	fn  func(any)
	arg any
	// at is the instant the effect fires on the destination lane; key is
	// the same instant on the kernel's integer time line, which is what
	// the merge order compares.
	at  time.Time
	key int64
	// posted is the source lane's clock (as a kernel instant) when the
	// effect was posted — the lamport component of the merge order (a
	// shared lane would have heap-inserted the event at this instant).
	posted int64
	// tie is a seeded hash breaking (key, posted) collisions without
	// systematic lane-index bias; src/seq give the total-order fallback.
	tie      uint64
	src, dst int32
	seq      uint64
}

// cmpPost is the canonical post merge order: delivery time, then the
// lamport post instant, then the seeded tie-break, then (source lane,
// per-lane post sequence) as a total-order fallback. Every component is
// a pure function of the schedule, so the order does not depend on how a
// window's events of different lanes interleaved.
func cmpPost(a, b post) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.posted, b.posted); c != 0 {
		return c
	}
	if c := cmp.Compare(a.tie, b.tie); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Lane is one deterministic partition of a Kernel: a clock and a post
// sequence. Its events live on the kernel's one queue. All scheduling
// calls on a Lane must come from code running on that lane (or from
// outside RunUntil entirely).
type Lane struct {
	k       *Kernel
	idx     int32
	now     time.Time
	postSeq uint64
}

var _ Clock = (*Lane)(nil)

// Now returns the lane's current virtual time: the instant of the event
// being executed while the lane runs, and the kernel's committed time
// between runs.
func (l *Lane) Now() time.Time { return l.now }

// enqueue stamps ev with lane l and instant t — clamped to the lane's
// current time, so scheduling in the past runs next instead of rewinding
// the clock — and queues it under (t as a kernel instant, next schedule
// sequence). The key is taken after the clamp, so it is the instant the
// event runs at. An instant past the end of the integer time line is
// pulled back to that end, where it runs in schedule order with any other
// such event.
func (l *Lane) enqueue(ev *Event, t time.Time) {
	if t.Before(l.now) {
		t = l.now
	}
	k := l.k
	at := k.instant(t)
	if at == math.MaxInt64 {
		t = k.origin.Add(time.Duration(at))
	}
	ev.at, ev.lane = t, l
	k.events.push(slot{at: at, seq: k.seq, ev: ev})
	k.seq++
}

// At schedules fn on this lane at instant t (clamped to the lane's
// current time) and returns a cancellable handle.
func (l *Lane) At(t time.Time, fn func()) *Event {
	ev := &Event{fn: fn}
	l.enqueue(ev, t)
	return ev
}

// After schedules fn on this lane d after the lane's current time.
func (l *Lane) After(d time.Duration, fn func()) *Event {
	return l.At(l.now.Add(d), fn)
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

// AfterCall schedules fn(arg) d after the lane's current time with
// AtCall's pooled semantics.
func (l *Lane) AfterCall(d time.Duration, fn func(any), arg any) {
	l.AtCall(l.now.Add(d), fn, arg)
}

// Post schedules fn(arg) on lane dst at instant t. A post to the
// poster's own lane is a plain local AtCall. A post to another lane is
// buffered in the kernel's posts and scheduled on the destination at the
// next window barrier in canonical order; the conservative contract
// requires t >= the current window's end (netsim guarantees it by
// deriving the kernel lookahead from the minimum link latency), and
// earlier instants are clamped to the window end.
func (l *Lane) Post(dst *Lane, t time.Time, fn func(any), arg any) {
	if dst == l {
		l.AtCall(t, fn, arg)
		return
	}
	k := l.k
	if k.inWindow && t.Before(k.wEnd) {
		t = k.wEnd
	}
	h := k.seed ^ (uint64(l.idx) << 40) ^ l.postSeq ^ uint64(t.UnixNano())
	k.posts = append(k.posts, post{
		fn: fn, arg: arg, at: t, key: k.instant(t), posted: k.instant(l.now),
		tie: Mix64(h), src: l.idx, dst: dst.idx, seq: l.postSeq,
	})
	l.postSeq++
}

// KernelOpts configures a Kernel.
type KernelOpts struct {
	// Deprecated: Workers is ignored. Every event runs on the goroutine
	// that calls RunUntil; the field stays because bench/ compiles
	// against it.
	Workers int
	// Seed feeds the canonical merge order's tie-break hash.
	Seed uint64
}

// Kernel is the deterministic event kernel. Create one with NewKernel,
// add a lane per simulated node, and drive it with RunUntil.
type Kernel struct {
	// origin is the zero of the integer time line the event queue and the
	// post merge order are keyed on (see instant).
	origin time.Time
	now    time.Time
	seed   uint64

	lookahead time.Duration
	lanes     []*Lane

	// events is the one event queue, seq the schedule sequence every lane
	// draws from, free the freelist of pooled events.
	events eventHeap
	seq    uint64
	free   *Event

	// Window state: Post reads wEnd while inWindow and buffers cross-lane
	// effects in posts until the window's barrier.
	inWindow bool
	wEnd     time.Time
	posts    []post

	executed int64
}

// NewKernel returns an empty Kernel whose clock starts at origin.
func NewKernel(origin time.Time, opts KernelOpts) *Kernel {
	return &Kernel{origin: origin, now: origin, seed: opts.Seed}
}

// instant places t on the kernel's integer time line: nanoseconds since
// the origin. Within 292 years either side of the origin the result is
// exact, so two instants compare as time.Time.Compare orders them (both
// count the same nanoseconds; neither looks at a Location); beyond that
// time.Time.Sub saturates at the end of the line instead of wrapping.
func (k *Kernel) instant(t time.Time) int64 { return int64(t.Sub(k.origin)) }

// AddLane appends a lane and returns it. Lanes must be added before
// RunUntil is first called.
func (k *Kernel) AddLane() *Lane {
	l := &Lane{k: k, idx: int32(len(k.lanes)), now: k.now}
	k.lanes = append(k.lanes, l)
	return l
}

// Now returns the kernel's committed virtual time.
func (k *Kernel) Now() time.Time { return k.now }

// Executed reports the total number of events run so far.
func (k *Kernel) Executed() int64 { return k.executed }

// SetLookahead sets the conservative window width: the guaranteed
// minimum delay of any cross-lane Post. netsim derives it from the
// minimum link latency before each run. A zero lookahead degrades to
// one barrier per distinct instant, which is still deterministic —
// just slower. A one-lane kernel has no cross-lane posts and ignores it.
func (k *Kernel) SetLookahead(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k.lookahead = d
}

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

// runOne pops and runs the head event, advancing its lane's clock to the
// event's instant. The head must be live: call nextAt first.
func (k *Kernel) runOne() {
	ev := k.events.pop()
	ev.lane.now = ev.at
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

// windowEnd returns the end of the conservative window opening at first.
func (k *Kernel) windowEnd(first, deadline time.Time) time.Time {
	switch {
	case len(k.lanes) == 1:
		// No other lane exists to post into this one: the whole run is
		// one window, with no barrier per lookahead.
		return deadline.Add(1)
	case k.lookahead <= 0:
		return first.Add(1) // degenerate: one barrier per distinct instant
	}
	return first.Add(k.lookahead)
}

// RunUntil executes events with time at or before deadline, leaving
// later events queued and the committed clock at the deadline. It
// returns ErrHorizon as soon as maxEvents (0 = unlimited) have run
// before the deadline was reached — exactly maxEvents on any lane
// count, so a zero-delay self-rescheduling event cannot spin past it.
// Every event runs on the calling goroutine.
func (k *Kernel) RunUntil(deadline time.Time, maxEvents int) error {
	ran := 0
	for {
		first, ok := k.nextAt()
		if !ok || first.After(deadline) {
			break
		}
		// Run the window [first, wEnd) in queue order. Events a window
		// schedules locally may run inside it; its cross-lane posts land
		// at or after wEnd, so none is missing from the queue.
		k.wEnd = k.windowEnd(first, deadline)
		k.inWindow = true
		for ; maxEvents <= 0 || ran < maxEvents; ran++ {
			at, ok := k.nextAt()
			if !ok || !at.Before(k.wEnd) || at.After(deadline) {
				break
			}
			k.runOne()
		}
		k.inWindow = false

		// Barrier: schedule the window's posts on their destinations in
		// canonical order. Each takes a schedule sequence above anything
		// its destination queued before the barrier.
		slices.SortFunc(k.posts, cmpPost)
		for _, p := range k.posts {
			k.lanes[p.dst].AtCall(p.at, p.fn, p.arg)
		}
		k.posts = k.posts[:0]
		if maxEvents > 0 && ran >= maxEvents {
			return ErrHorizon
		}
	}

	if k.now.Before(deadline) {
		k.now = deadline
	}
	// Lanes idle between runs read the committed clock, so idle nodes
	// observe the same time on every lane layout.
	for _, l := range k.lanes {
		if l.now.Before(k.now) {
			l.now = k.now
		}
	}
	return nil
}
