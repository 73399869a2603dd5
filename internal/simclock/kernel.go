// The deterministic kernel: the repo's one event engine. A Kernel
// partitions the simulation into lanes — one per network node, or a
// single lane every node shares (Scheduler) — each with its own event
// heap, clock, and schedule-order sequence. Lanes whose next events fall
// inside the current conservative window [T, T+lookahead) run one after
// another on the calling goroutine; cross-lane effects (message
// deliveries) are posted into per-lane mailboxes and merged at the
// window barrier in a canonical order. Because window boundaries,
// per-lane sequences, and the mailbox merge order are all derived from
// the seed and the schedule alone — never from which lane of a window
// ran first — a Kernel run is a pure function of (seed, topology). The
// classic conservative-PDES safety argument applies: a cross-lane effect
// posted from a window always lands at or after the window's end (netsim
// guarantees post delay >= lookahead = the minimum link latency), so no
// lane can ever receive an event earlier than one it already executed. A
// one-lane kernel has no cross-lane effects at all, so its window is the
// whole run and its order is plain (time, schedule sequence).
package simclock

import (
	"cmp"
	"container/heap"
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

// cmpPost is the canonical mailbox merge order: delivery time, then the
// lamport post instant, then the seeded tie-break, then (source lane,
// per-lane post sequence) as a total-order fallback. Every component is
// a pure function of the schedule, so the order does not depend on which
// lane of a window ran first.
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

// Lane is one deterministic partition of a Kernel: an event heap, a
// clock, and a schedule-order sequence. All scheduling calls on a Lane
// must come from code running on that lane (or from outside RunUntil
// entirely).
type Lane struct {
	k   *Kernel
	idx int32
	// heapIdx is the lane's position in the kernel's wake heap; -1 when
	// the lane has no pending events.
	heapIdx int32

	now     time.Time
	seq     uint64
	postSeq uint64
	events  eventHeap
	free    *Event

	outbox []post
	inbox  []post
}

var _ Clock = (*Lane)(nil)

// Now returns the lane's current virtual time: the instant of the event
// being executed while the lane runs, and the kernel's committed time
// between runs.
func (l *Lane) Now() time.Time { return l.now }

// enqueue stamps ev with instant t — clamped to the lane's current time,
// so scheduling in the past runs next instead of rewinding the clock —
// and queues it under (t as a kernel instant, next schedule sequence).
// The key is taken after the clamp, so it is the instant the event runs
// at. An instant past the end of the integer time line is pulled back to
// that end, where it runs in schedule order with any other such event.
func (l *Lane) enqueue(ev *Event, t time.Time) {
	if t.Before(l.now) {
		t = l.now
	}
	at := l.k.instant(t)
	if at == math.MaxInt64 {
		t = l.k.origin.Add(time.Duration(at))
	}
	ev.at = t
	l.events.push(slot{at: at, seq: l.seq, ev: ev})
	l.seq++
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
// event cannot be cancelled, which lets the lane recycle it through its
// freelist — a hot send path schedules without allocating. fn is
// typically a stored method value, so the call itself captures nothing.
func (l *Lane) AtCall(t time.Time, fn func(any), arg any) {
	ev := l.free
	if ev != nil {
		l.free = ev.nextFree
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
// buffered in the posting lane's outbox and merged into the destination
// at the next window barrier in canonical order; the conservative
// contract requires t >= the current window's end (netsim guarantees it
// by deriving the kernel lookahead from the minimum link latency), and
// earlier instants are clamped to the window end.
func (l *Lane) Post(dst *Lane, t time.Time, fn func(any), arg any) {
	if dst == l {
		l.AtCall(t, fn, arg)
		return
	}
	if l.k.inWindow && t.Before(l.k.wEnd) {
		t = l.k.wEnd
	}
	h := l.k.seed ^ (uint64(l.idx) << 40) ^ l.postSeq ^ uint64(t.UnixNano())
	l.outbox = append(l.outbox, post{
		fn: fn, arg: arg, at: t, key: l.k.instant(t), posted: l.k.instant(l.now),
		tie: Mix64(h), src: l.idx, dst: dst.idx, seq: l.postSeq,
	})
	l.postSeq++
}

// runOne pops and runs the lane's head event, advancing the lane clock
// to its instant. The head must be live: call nextAt first.
func (l *Lane) runOne() {
	ev := l.events.pop()
	l.now = ev.at
	if ev.pooled {
		// Copy out before releasing: the callback may schedule new
		// events that reuse this Event value.
		fn, arg := ev.fnArg, ev.arg
		l.release(ev)
		fn(arg)
		return
	}
	ev.fn()
}

// runWindow executes the lane's events inside [l.now, wEnd) that are not
// past the deadline, at most budget of them (0 = unlimited), and reports
// how many ran.
func (l *Lane) runWindow(wEnd, deadline time.Time, budget int) int {
	ran := 0
	for budget <= 0 || ran < budget {
		at, ok := l.nextAt()
		if !ok || !at.Before(wEnd) || at.After(deadline) {
			break
		}
		l.runOne()
		ran++
	}
	return ran
}

// release returns a pooled event to the lane freelist.
func (l *Lane) release(ev *Event) {
	*ev = Event{nextFree: l.free}
	l.free = ev
}

// nextAt reaps cancelled heap heads and returns the lane's next pending
// event time; ok is false when the lane is drained.
func (l *Lane) nextAt() (time.Time, bool) {
	for len(l.events) > 0 {
		ev := l.events[0].ev
		if !ev.cancelled {
			return ev.at, true
		}
		l.events.pop()
		if ev.pooled {
			l.release(ev)
		}
	}
	return time.Time{}, false
}

// laneHeap orders lanes by next pending event time, then lane index.
type laneHeap []*Lane

func (h laneHeap) Len() int { return len(h) }

func (h laneHeap) Less(i, j int) bool {
	ti, _ := h[i].nextAt()
	tj, _ := h[j].nextAt()
	if !ti.Equal(tj) {
		return ti.Before(tj)
	}
	return h[i].idx < h[j].idx
}

func (h laneHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}

func (h *laneHeap) Push(x any) {
	l, ok := x.(*Lane)
	if !ok {
		return
	}
	l.heapIdx = int32(len(*h))
	*h = append(*h, l)
}

func (h *laneHeap) Pop() any {
	old := *h
	n := len(old)
	l := old[n-1]
	old[n-1] = nil
	l.heapIdx = -1
	*h = old[:n-1]
	return l
}

// KernelOpts configures a Kernel.
type KernelOpts struct {
	// Deprecated: Workers is ignored. Every window's lanes run on the
	// goroutine that calls RunUntil; the field stays because bench/
	// compiles against it.
	Workers int
	// Seed feeds the canonical merge order's tie-break hash.
	Seed uint64
}

// Kernel is the deterministic event kernel. Create one with NewKernel,
// add a lane per simulated node, and drive it with RunUntil.
type Kernel struct {
	// origin is the zero of the integer time line event queues and the
	// mailbox merge order are keyed on (see instant).
	origin time.Time
	now    time.Time
	seed   uint64

	lookahead time.Duration

	lanes []*Lane
	wake  laneHeap

	// Window state: Post reads wEnd while inWindow; active holds the
	// lanes claimed for the current window.
	inWindow bool
	wEnd     time.Time
	active   []*Lane

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
	l := &Lane{k: k, idx: int32(len(k.lanes)), heapIdx: -1, now: k.now}
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

// wakeIfPending queues a lane that is outside the wake heap and has work.
func (k *Kernel) wakeIfPending(l *Lane) {
	if l.heapIdx < 0 {
		if _, ok := l.nextAt(); ok {
			heap.Push(&k.wake, l)
		}
	}
}

// RunUntil executes events with time at or before deadline, leaving
// later events queued and the committed clock at the deadline. It
// returns ErrHorizon as soon as maxEvents (0 = unlimited) have run
// before the deadline was reached; the remaining budget bounds every
// lane inside a window, so a zero-delay self-rescheduling event cannot
// spin past it. Every event runs on the calling goroutine.
func (k *Kernel) RunUntil(deadline time.Time, maxEvents int) error {
	// Seed the wake heap from every lane with pending work: events may
	// have been scheduled directly between runs.
	k.wake = k.wake[:0]
	for _, l := range k.lanes {
		l.heapIdx = -1
		if _, ok := l.nextAt(); ok {
			l.heapIdx = int32(len(k.wake))
			k.wake = append(k.wake, l)
		}
	}
	heap.Init(&k.wake)

	ran := 0
	for len(k.wake) > 0 {
		first, ok := k.wake[0].nextAt()
		if !ok {
			// Fully-cancelled lane: reap it rather than let a zero
			// next-event time distort the window start.
			heap.Pop(&k.wake)
			continue
		}
		if first.After(deadline) {
			break
		}
		k.wEnd = k.windowEnd(first, deadline)
		budget := max(maxEvents-ran, 0) // each lane's cap this window; 0 = unlimited
		k.inWindow = true

		// Claim every lane with work inside the window. Lanes cannot
		// become runnable mid-window: local scheduling stays on the
		// already-claimed lane and cross-lane posts land at or after
		// wEnd.
		k.active = k.active[:0]
		for len(k.wake) > 0 {
			t, _ := k.wake[0].nextAt()
			if !t.Before(k.wEnd) || t.After(deadline) {
				break
			}
			l, _ := heap.Pop(&k.wake).(*Lane)
			k.active = append(k.active, l)
		}

		for _, l := range k.active {
			n := l.runWindow(k.wEnd, deadline, budget)
			ran += n
			k.executed += int64(n)
		}
		k.inWindow = false

		// Barrier: merge outboxes into destination lanes in canonical
		// order, then requeue lanes with remaining work. In-wake dirty
		// lanes were re-positioned inside mergePosts; the dirty pass
		// wakes lanes that were idle (not in the heap, not active)
		// before their posts arrived.
		dirty := k.mergePosts()
		for _, l := range k.active {
			k.wakeIfPending(l)
		}
		for _, l := range dirty {
			k.wakeIfPending(l)
		}
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

// mergePosts distributes every active lane's outbox into destination
// inboxes, sorts each inbox canonically, and appends the posts to the
// destination heaps in that order. It returns the lanes that received
// posts. It runs between windows.
func (k *Kernel) mergePosts() []*Lane {
	var dirty []*Lane
	for _, src := range k.active {
		for _, p := range src.outbox {
			dst := k.lanes[p.dst]
			if len(dst.inbox) == 0 {
				dirty = append(dirty, dst)
			}
			dst.inbox = append(dst.inbox, p)
		}
		src.outbox = src.outbox[:0]
	}
	for _, dst := range dirty {
		slices.SortFunc(dst.inbox, cmpPost)
		for _, p := range dst.inbox {
			dst.AtCall(p.at, p.fn, p.arg)
		}
		dst.inbox = dst.inbox[:0]
		// Restore the wake heap NOW, before the next lane's inserts touch
		// another key. heap.Fix is only sound for a single out-of-place
		// element in an otherwise valid heap: deferring all fixes to the
		// end of the barrier (while posts shrink many in-wake keys at
		// once) lets a sift move a large-keyed lane above a small-keyed
		// one it is never compared against, and a lane stranded deep in
		// the heap stops being claimed — its events (and every message
		// behind them) sit until some unrelated far-future timer drags
		// the window forward.
		if dst.heapIdx >= 0 {
			heap.Fix(&k.wake, int(dst.heapIdx))
		}
	}
	return dirty
}
