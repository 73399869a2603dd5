package main

import (
	"time"

	"athena/internal/annotate"
	iathena "athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/simclock"
	"athena/internal/transport"
)

// The decorators below sit on the interfaces iathena.Config already takes
// and record a span around every call that crosses them. They add nothing
// to the program and are only ever installed by the traced run; the
// end-to-end numbers come from runs that never construct one.
//
// trust.Signer is a struct, not an interface, so signing cannot be
// decorated. trust.sign_calls is read from the program's own annotation
// counter (every annotation is signed once) and trust.sign_us is that
// count times the unit driver's cost of one signature.

// queryOf returns the decision a payload names, if it names one.
func queryOf(payload any) string {
	switch m := payload.(type) {
	case *iathena.QueryAnnounce:
		return m.QueryID
	case *iathena.ObjectRequest:
		return m.QueryID
	case *iathena.ObjectData:
		return m.QueryID
	case *iathena.LabelShare:
		return m.QueryID
	}
	return ""
}

// tracedTransport records a send span around Send and a handle span
// around every message the node receives.
type tracedTransport struct {
	inner transport.Transport
	t     *nodeTrace
}

var (
	_ transport.Transport      = (*tracedTransport)(nil)
	_ transport.PrioritySender = (*prioritySends)(nil)
)

func (d *tracedTransport) Self() string          { return d.inner.Self() }
func (d *tracedTransport) Neighbors() []string   { return d.inner.Neighbors() }
func (d *tracedTransport) Clock() simclock.Clock { return d.inner.Clock() }

func (d *tracedTransport) Send(to string, size int64, payload any) error {
	i := d.t.begin(spanSend, queryOf(payload))
	err := d.inner.Send(to, size, payload)
	d.t.end(i, size)
	return err
}

func (d *tracedTransport) SetHandler(h transport.Handler) {
	d.inner.SetHandler(func(from string, size int64, payload any) {
		d.t.top(spanHandle, queryOf(payload), func() { h(from, size, payload) })
	})
}

// prioritySends adds SendPriority where the bare transport has it. Gossip
// control messages ride the priority class on the simulator; without the
// pass-through they would queue behind bulk transfers and the traced
// fleet would stop behaving like the bare one (the fidelity check catches
// exactly that).
type prioritySends struct {
	*tracedTransport
	pri transport.PrioritySender
}

func (d *prioritySends) SendPriority(to string, size int64, priority int, payload any) error {
	i := d.t.begin(spanSend, queryOf(payload))
	err := d.pri.SendPriority(to, size, priority, payload)
	d.t.end(i, size)
	return err
}

func traceTransport(inner transport.Transport, t *nodeTrace) transport.Transport {
	d := &tracedTransport{inner: inner, t: t}
	if pri, ok := inner.(transport.PrioritySender); ok {
		return &prioritySends{tracedTransport: d, pri: pri}
	}
	return d
}

// tracedCodec records an encode span (a child of the send that caused it)
// and a decode span (on a reader goroutine, parentless).
type tracedCodec struct {
	inner transport.Codec
	t     *nodeTrace
}

var _ transport.Codec = (*tracedCodec)(nil)

func (c *tracedCodec) Append(dst []byte, from string, size int64, payload any) ([]byte, error) {
	i := c.t.begin(spanEncode, queryOf(payload))
	out, err := c.inner.Append(dst, from, size, payload)
	c.t.end(i, int64(len(out)-len(dst)))
	return out, err
}

func (c *tracedCodec) Decode(body []byte) (string, any, error) {
	start := c.t.now()
	from, payload, err := c.inner.Decode(body)
	c.t.decoded(start, c.t.now(), int64(len(body)), queryOf(payload))
	return from, payload, err
}

// tracedTimers records a timer span around every callback when it fires.
// Scheduling itself is passed through untouched, so the order of events
// in the simulator is what it would be without the decorator.
type tracedTimers struct {
	inner iathena.Timers
	t     *nodeTrace
}

var _ iathena.Timers = (*tracedTimers)(nil)

func (d *tracedTimers) After(delay time.Duration, fn func()) {
	d.inner.After(delay, func() { d.t.top(spanTimer, "", fn) })
}

func (d *tracedTimers) AfterArg(delay time.Duration, fn func(any), arg any) {
	d.inner.AfterArg(delay, func(a any) { d.t.top(spanTimer, "", func() { fn(a) }) }, arg)
}

// tracedRouter records a next-hop span.
type tracedRouter struct {
	inner iathena.Router
	t     *nodeTrace
}

var _ iathena.Router = (*tracedRouter)(nil)

func (r *tracedRouter) NextHop(from, to string) (string, error) {
	i := r.t.begin(spanNextHop, "")
	hop, err := r.inner.NextHop(from, to)
	r.t.end(i, 0)
	return hop, err
}

// tracedWorld records a span per ground-truth read, which is one per
// annotation.
type tracedWorld struct {
	inner annotate.GroundTruth
	t     *nodeTrace
}

var _ annotate.GroundTruth = (*tracedWorld)(nil)

func (w *tracedWorld) LabelValue(label string, at time.Time) bool {
	i := w.t.begin(spanTruth, "")
	v := w.inner.LabelValue(label, at)
	w.t.end(i, 0)
	return v
}

// tracedQueryInit issues a decision through a queryinit span.
func tracedQueryInit(t *nodeTrace, n *iathena.Node, expr boolexpr.DNF, deadline time.Duration) (id string, err error) {
	t.top(spanQueryInit, "", func() {
		id, err = n.QueryInit(expr, deadline)
		t.spans[t.cur].qid = id // every nested span has ended, so cur is this span again
	})
	return id, err
}
