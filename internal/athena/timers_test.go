package athena

import (
	"reflect"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/trust"
)

// stopRig is node "b" on a recording transport, with a clock the test
// moves and timers the test fires. Built stoppable, the node is given
// StopTimers, as a daemon is; otherwise only Timers, as the simulator's
// nodes are. It runs lvf and trusts every annotator unless set says
// otherwise.
type stopRig struct {
	recTransport
	now    time.Time
	timers []*rigTimer
	n      *Node
}

// rigTimer is one armed timer. fired means it came due: a Stop from then
// on loses the race, as a *time.Timer's does once its callback has started.
type rigTimer struct {
	at      time.Time
	fn      func()
	fired   bool
	stopped bool
	stops   int // Stop calls, won or lost
}

func (t *rigTimer) Stop() bool {
	t.stops++
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

func (r *stopRig) Clock() simclock.Clock { return r }
func (r *stopRig) Now() time.Time        { return r.now }
func (r *stopRig) After(d time.Duration, fn func()) {
	r.arm(d, fn)
}
func (r *stopRig) AfterArg(d time.Duration, fn func(any), arg any) {
	r.arm(d, func() { fn(arg) })
}

func (r *stopRig) arm(d time.Duration, fn func()) *rigTimer {
	tm := &rigTimer{at: r.now.Add(d), fn: fn}
	r.timers = append(r.timers, tm)
	return tm
}

// stoppableRig is the rig's Timers with StopTimers.
type stoppableRig struct{ *stopRig }

func (s stoppableRig) AfterStop(d time.Duration, fn func()) Stopper { return s.arm(d, fn) }

func newStopRig(t *testing.T, stoppable bool, set ...func(*Config)) *stopRig {
	t.Helper()
	r := &stopRig{now: tBase}
	var timers Timers = r
	if stoppable {
		timers = stoppableRig{r}
	}
	auth := trust.NewAuthority()
	cfg := Config{
		ID: "b", Transport: r, Router: &StaticRouter{Self: "b"}, Timers: timers,
		Scheme: SchemeLVF, Directory: NewDirectory([]object.Descriptor{dispatchDesc("a"), dispatchDesc("c")}),
		World: staticWorld{"la": true, "lc": true}, Authority: auth,
		Signer: auth.Register("b", []byte("k-b")), Policy: trust.TrustAll(),
		CacheBytes: 1,
	}
	for _, f := range set {
		f(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.n = n
	return r
}

// advance moves the clock and fires, in arming order, every timer that
// came due and was not stopped, including those armed by the firing.
func (r *stopRig) advance(d time.Duration) {
	r.now = r.now.Add(d)
	for fired := true; fired; {
		fired = false
		for _, tm := range r.timers {
			if !tm.fired && !tm.stopped && !tm.at.After(r.now) {
				tm.fired, fired = true, true
				tm.fn()
			}
		}
	}
}

// fireAsync fires tm on a goroutine of its own, as time.AfterFunc does.
// Called with n.mu held, the callback waits for the lock. The channel
// closes when it has run.
func (r *stopRig) fireAsync(tm *rigTimer) <-chan struct{} {
	tm.fired = true
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm.fn()
	}()
	return done
}

// locked runs fn under the node lock, as a handler would run.
func (r *stopRig) locked(fn func()) {
	r.n.mu.Lock()
	defer r.n.mu.Unlock()
	fn()
}

func (r *stopRig) query(t *testing.T, expr string) string {
	t.Helper()
	id, err := r.n.QueryInit(boolexpr.ToDNF(boolexpr.MustParse(expr)), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	r.advance(0) // the drain: the requests go out
	return id
}

// sampleOf is the object source id serves.
func sampleOf(id string, now time.Time) *object.Object {
	return &object.Object{
		ID: object.ID{Name: names.MustParse("/cam/" + id), Version: 1}, Size: 1000,
		Created: now, Validity: time.Minute, Labels: []string{"l" + id}, Source: id,
	}
}

// relayed is an object request from origin a for c's object, crossing b.
func relayed(queryID string) *ObjectRequest {
	return &ObjectRequest{QueryID: queryID, Origin: "a", Object: "/cam/c", SourceNode: "c", Labels: []string{"lc"}}
}

// answer is c's object, answering relayed(queryID), as it reaches b.
func answer(queryID string, now time.Time) *ObjectData {
	return dataMsg(sampleOf("c", now), "a", queryID)
}

// rigState is what a timer's callback could change on the rig's node.
type rigState struct {
	stats       Stats
	results     int
	sent        int
	outstanding int
	attempts    int
	pending     bool
}

func (r *stopRig) state(queryID string) rigState {
	s := rigState{stats: r.n.stats, results: len(r.n.results), sent: len(r.sent)}
	if q, ok := r.n.queries[queryID]; ok {
		s.outstanding = q.inFlight
		for _, req := range q.reqs {
			s.attempts += req.attempts
		}
	}
	s.pending = r.n.interest.reqs["/cam/c"].gen != 0
	return s
}

// A timer that fires while what it guards is being settled — its Stop
// loses the race and its callback waits on n.mu — still changes nothing
// once it gets the lock: the deadline watchdog of a query that resolved,
// the recovery timer of a request that was answered, the retransmit timer
// of an upstream request whose data arrived. Run under -race: the callback
// runs on a goroutine of its own, as time.AfterFunc's do.
func TestStopLosingToFiringTimerChangesNothing(t *testing.T) {
	cases := []struct {
		name string
		// start sets up what the timer guards and returns the query id (if
		// any) and the timer; settle then settles it under n.mu.
		start  func(t *testing.T, r *stopRig) (string, *rigTimer)
		settle func(r *stopRig)
	}{
		{"watchdog", func(t *testing.T, r *stopRig) (string, *rigTimer) {
			id := r.query(t, "la")
			return id, r.n.queries[id].watchdog.(*rigTimer)
		}, func(r *stopRig) {
			r.n.deliverObject(sampleOf("a", r.now), r.now) // resolves and records the query
		}},
		{"request recovery", func(t *testing.T, r *stopRig) (string, *rigTimer) {
			id := r.query(t, "la & lc")
			return id, r.n.queries[id].reqs["/cam/a"].timer.(*rigTimer)
		}, func(r *stopRig) {
			r.n.deliverObject(sampleOf("a", r.now), r.now) // answers /cam/a; lc still pending
		}},
		{"forward retry", func(t *testing.T, r *stopRig) (string, *rigTimer) {
			r.locked(func() { r.n.handleRequest("a", relayed("a/q1")) })
			return "", r.n.interest.reqs["/cam/c"].mark.timer.(*rigTimer)
		}, func(r *stopRig) {
			r.n.handleData("c", answer("a/q1", r.now)) // satisfies the pending mark
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newStopRig(t, true)
			id, tm := tc.start(t, r)
			r.advance(time.Second)
			var done <-chan struct{}
			var settled rigState
			r.locked(func() {
				done = r.fireAsync(tm)
				tc.settle(r)
				settled = r.state(id)
			})
			<-done
			if tm.stops != 1 {
				t.Errorf("settling called Stop on the timer %d times, want 1", tm.stops)
			}
			var after rigState
			r.locked(func() { after = r.state(id) })
			if !reflect.DeepEqual(after, settled) {
				t.Errorf("the timer's callback changed the node after it lost the stop:\n got %+v\nwant %+v", after, settled)
			}
		})
	}
}

// A forward retry that outlives its answer, with the same object pending
// again for another query when it fires, must not re-forward the old
// request as a retransmission. Stopped when the answer arrives, it cannot;
// the simulator's timers cannot be stopped, and there the retry finds the
// object pending under another mark's generation and does nothing.
func TestStaleForwardRetry(t *testing.T) {
	for _, tc := range []struct {
		name        string
		stoppable   bool
		retransmits int
	}{
		{"stoppable timers", true, 0},
		{"simulator timers", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStopRig(t, tc.stoppable)
			r.locked(func() { r.n.handleRequest("a", relayed("a/q1")) })
			r.advance(time.Second)
			r.locked(func() { r.n.handleData("c", answer("a/q1", r.now)) })
			r.advance(time.Second)
			r.locked(func() { r.n.handleRequest("a", relayed("a/q2")) })
			r.sent = nil
			// Past a/q1's retry window (6 s from its forward), short of a/q2's.
			r.advance(5 * time.Second)
			if got := r.n.Stats().Retransmits; got != tc.retransmits {
				t.Errorf("%d retransmissions, want %d", got, tc.retransmits)
			}
			stale := 0
			for _, f := range r.sent {
				if req, ok := f.payload.(*ObjectRequest); ok && req.QueryID == "a/q1" {
					stale++
				}
			}
			if stale != tc.retransmits {
				t.Errorf("a/q1's answered request was sent again %d times, want %d", stale, tc.retransmits)
			}
		})
	}
}

// A fresher sample moves a query's expiry recheck to a later instant; the
// superseded recheck, firing first, pumps the query but leaves the newer
// mark be, so the later instant is armed once, on either clock.
func TestSupersededRecheckArmsNewestOnce(t *testing.T) {
	for _, stoppable := range []bool{true, false} {
		r := newStopRig(t, stoppable)
		r.query(t, "la & lc")
		for _, wait := range []time.Duration{time.Second, time.Second} {
			r.advance(wait)
			obj := sampleOf("a", r.now)
			obj.Validity = 10 * time.Second
			r.locked(func() { r.n.deliverObject(obj, r.now) })
		}
		// The recheck of the first sample's expiry (11 s) fires; the second
		// sample's (12 s) is still to come.
		r.advance(9500 * time.Millisecond)
		newest := tBase.Add(12*time.Second + time.Millisecond)
		armed := 0
		for _, tm := range r.timers {
			if tm.at.Equal(newest) {
				armed++
			}
		}
		if armed != 1 {
			t.Errorf("stoppable=%v: the recheck at 12 s was armed %d times, want 1", stoppable, armed)
		}
	}
}

// Whatever settles what a timer guards stops the timer, and a recorded
// query holds none: once a two-label query is decided, every timer the
// node armed for it has fired or been stopped — also when it was decided
// by the first answer, with the second request still in flight, and when
// a fresher sample moved the expiry recheck to a later instant and the
// superseded recheck fired before the decision.
func TestRecordedQueryLeavesNoTimerArmed(t *testing.T) {
	type answer struct {
		wait     time.Duration // the clock's advance before it arrives
		src      string
		validity time.Duration // 0: the sample's own minute
	}
	for _, tc := range []struct {
		name, expr string
		answers    []answer
		want       func(Stats) int
	}{
		{"both answered", "la & lc", []answer{{time.Second, "a", 0}, {time.Second, "c", 0}},
			func(s Stats) int { return s.ResolvedTrue }},
		{"second in flight", "!la & lc", []answer{{time.Second, "a", 0}},
			func(s Stats) int { return s.ResolvedFalse }},
		// a's first sample arms the recheck at 11 s, its second moves it to
		// 12 s, and c's answer comes at 11.5 s.
		{"recheck moved", "la & lc", []answer{
			{time.Second, "a", 10 * time.Second}, {time.Second, "a", 10 * time.Second},
			{9500 * time.Millisecond, "c", 0},
		}, func(s Stats) int { return s.ResolvedTrue }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStopRig(t, true)
			r.query(t, tc.expr)
			for _, a := range tc.answers {
				r.advance(a.wait)
				obj := sampleOf(a.src, r.now)
				if a.validity > 0 {
					obj.Validity = a.validity
				}
				r.locked(func() { r.n.deliverObject(obj, r.now) })
			}
			r.advance(0)
			if got := tc.want(r.n.Stats()); got != 1 {
				t.Fatalf("%d queries decided as expected, want 1", got)
			}
			for i, tm := range r.timers {
				if !tm.fired && !tm.stopped {
					t.Errorf("timer %d (due %v after the start) is still armed", i, tm.at.Sub(tBase))
				}
			}
		})
	}
}
