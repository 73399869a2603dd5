// Package laneshare is the fixture corpus for the laneshare check: a
// seeded miniature of the PDES kernel's lane discipline (internal/simclock)
// in which the mailbox post has been deleted along the violating paths.
// Handlers registered through AtCall / AfterCall run on the owning lane;
// every cross-lane effect must be buffered with Post and merged at the
// window barrier, or it takes hold at a virtual time no event scheduled.
package laneshare

import "sync"

// post is one buffered cross-lane event.
type post struct {
	dst *Lane
	at  int64
	arg any
}

// Lane is a miniature kernel lane. inbox holds events the kernel merged
// in for this lane; outbox buffers events this lane emitted for others.
type Lane struct {
	now    int64
	inbox  []post
	outbox []post
	peer   *Lane
}

// AtCall registers fn(arg) at absolute tick t on this lane — a kernel
// entry point; the bodies of registered handlers are lane-reachable.
func (l *Lane) AtCall(t int64, fn func(any), arg any) {
	l.inbox = append(l.inbox, post{dst: l, at: t, arg: arg})
	_ = fn
}

// AfterCall registers fn(arg) a relative delay after the lane's clock.
func (l *Lane) AfterCall(d int64, fn func(any), arg any) {
	l.AtCall(l.now+d, fn, arg)
}

// Post buffers a cross-lane event in the sender's own outbox; the kernel
// drains outboxes at the barrier and appends to each destination inbox in
// canonical lane order. This is the only legal way to affect a peer.
func (l *Lane) Post(dst *Lane, at int64, arg any) {
	l.outbox = append(l.outbox, post{dst: dst, at: at, arg: arg})
}

// Wire registers the handlers in the three shapes the root scan resolves:
// a top-level function, method values, and a func literal.
func Wire(l *Lane) {
	l.AtCall(0, tickHandler, nil)
	l.AtCall(1, l.onDeliver, nil)
	l.AfterCall(2, l.onForward, nil)
	l.AfterCall(3, l.onStats, nil)
	l.AfterCall(4, l.onSeed, nil)
	l.AfterCall(5, func(any) { l.now++ }, nil)
}

// delivered counts deliveries across all lanes: package-level state
// written from lane code, so lane run order orders the increments.
var delivered int

// tickHandler is a registered top-level handler.
func tickHandler(any) {
	delivered++
}

// onDeliver hands an event to the peer lane with the mailbox post
// deleted: it writes the peer's inbox directly and pokes the peer's
// clock, so the result depends on which lane runs first.
func (l *Lane) onDeliver(arg any) {
	dst := l.peer
	dst.inbox = append(dst.inbox, post{dst: dst, at: l.now, arg: arg})
	dst.bump()
}

// onForward is the correct shape: the effect is buffered in the sender's
// own outbox and merged at the barrier.
func (l *Lane) onForward(arg any) {
	l.now++
	l.Post(l.peer, l.now+1, arg)
}

// bump advances a lane's clock.
func (l *Lane) bump() { l.now++ }

// statsMu serializes the shared tally below; the lock orders the writes,
// so laneshare defers to the lock checks for mutex-guarded state.
var (
	statsMu sync.Mutex
	stats   int
)

// onStats writes shared state under the mutex — legal.
func (l *Lane) onStats(any) {
	statsMu.Lock()
	stats++
	statsMu.Unlock()
}

// seedCounter is bumped once per lane during warm-up, before the first
// window opens; the exception is deliberate and annotated.
var seedCounter int

func (l *Lane) onSeed(any) {
	seedCounter++ //lint:allow laneshare warm-up runs before the first window opens
}
