package athena

import (
	"fmt"
	"testing"
	"time"

	"athena/internal/trust"
)

// TestObjReqTransitions is the origin's (phase, event) table over
// localQuery.step: a request never sent, one sent before and out of flight
// (idle), and one in flight, each meets each event. The row is the record
// after the event ("none": still no record), whether step reported it in
// flight before, and the in-flight count. A timeout is the current send's
// timer; a stale one an earlier send's. Forbidden pairs change nothing:
// sending a request already in flight (the pumps skip those), and any
// timeout of a request never sent (no timer exists for it).
func TestObjReqTransitions(t *testing.T) {
	const obj = "/cam/x"
	phases := []struct {
		name string
		r    *objReq
	}{
		{"never sent", nil},
		{"idle", &objReq{sends: 1, attempts: 2}},
		{"in flight", &objReq{sends: 2, attempts: 2, inFlight: true}},
	}
	events := []struct {
		name string
		ev   reqEvent
		back int // how many sends before the current one the timer's is
	}{
		{"send", reqSend, 0}, {"timeout", reqTimeout, 0}, {"stale timeout", reqTimeout, 1},
		{"data", reqData, 0}, {"label answer", reqLabel, 0}, {"source lost", reqLost, 0},
	}
	want := map[string]string{
		"never sent/send":          "sends=1 attempts=0 in flight; was=false; count=1",
		"never sent/timeout":       "none; was=false; count=0", // forbidden
		"never sent/stale timeout": "none; was=false; count=0", // forbidden
		"never sent/data":          "none; was=false; count=0",
		"never sent/label answer":  "none; was=false; count=0",
		"never sent/source lost":   "none; was=false; count=0",
		"idle/send":                "sends=2 attempts=2 in flight; was=false; count=1",
		"idle/timeout":             "sends=1 attempts=2 idle; was=false; count=0",
		"idle/stale timeout":       "sends=1 attempts=2 idle; was=false; count=0",
		"idle/data":                "sends=1 attempts=0 idle; was=false; count=0",
		"idle/label answer":        "sends=1 attempts=2 idle; was=false; count=0",
		"idle/source lost":         "sends=1 attempts=2 idle; was=false; count=0",
		"in flight/send":           "sends=2 attempts=2 in flight; was=true; count=1", // forbidden
		"in flight/timeout":        "sends=2 attempts=3 idle; was=true; count=0",
		"in flight/stale timeout":  "sends=2 attempts=2 in flight; was=false; count=1",
		"in flight/data":           "sends=2 attempts=0 idle; was=true; count=0",
		"in flight/label answer":   "sends=2 attempts=2 idle; was=true; count=0",
		"in flight/source lost":    "sends=2 attempts=2 idle; was=true; count=0",
	}
	for _, p := range phases {
		for _, e := range events {
			key := p.name + "/" + e.name
			q := &localQuery{reqs: make(map[string]objReq)}
			var tm *rigTimer
			if p.r != nil {
				r := *p.r
				if r.inFlight {
					tm = &rigTimer{}
					r.timer = tm
					q.inFlight = 1
				}
				q.reqs[obj] = r
			}
			_, was := q.step(obj, e.ev, q.reqs[obj].sends-e.back)
			got := "none"
			if r, ok := q.reqs[obj]; ok {
				phase := "idle"
				if r.inFlight {
					phase = "in flight"
				}
				got = fmt.Sprintf("sends=%d attempts=%d %s", r.sends, r.attempts, phase)
				if !r.inFlight && r.timer != nil {
					t.Errorf("%s: a request out of flight holds a timer", key)
				}
			}
			got += fmt.Sprintf("; was=%v; count=%d", was, q.inFlight)
			if got != want[key] {
				t.Errorf("%s: got %q, want %q", key, got, want[key])
			}
			if tm != nil && tm.stopped != (was && !q.reqs[obj].inFlight) {
				t.Errorf("%s: timer stopped=%v; a request leaving flight, and only one, stops its timer", key, tm.stopped)
			}
		}
	}
}

// A query's requests go through every event on a node whose timers can be
// stopped, and after each one every request in flight holds a timer that
// has neither fired nor been stopped: no request is in flight that nothing
// will recover.
func TestInFlightRequestsHoldLiveTimers(t *testing.T) {
	r := newStopRig(t, true, lvfl)
	id := r.query(t, "la & lc")
	check := func(after string) {
		t.Helper()
		q := r.n.queries[id]
		if q == nil {
			t.Fatalf("after %s: the query was recorded", after)
		}
		n := 0
		for obj, req := range q.reqs {
			if !req.inFlight {
				continue
			}
			n++
			if tm := req.timer.(*rigTimer); tm.fired || tm.stopped {
				t.Errorf("after %s: %s is in flight with a timer that fired=%v stopped=%v", after, obj, tm.fired, tm.stopped)
			}
		}
		if n != q.inFlight {
			t.Errorf("after %s: %d requests in flight, count %d", after, n, q.inFlight)
		}
	}
	check("the sends")
	if q := r.n.queries[id]; q.inFlight != 2 {
		t.Fatalf("%d requests in flight, want 2", q.inFlight)
	}

	rec := &trust.Label{Name: "la", Value: true, Computed: r.now, Validity: 10 * time.Second}
	r.n.signer.Sign(rec)
	r.locked(func() { r.n.handleLabelShare("a", &LabelShare{Records: []trust.Label{*rec}, Dest: "b", QueryID: id}) })
	check("a label answer")

	r.advance(7 * time.Second) // c's recovery (6.02 s) fires; the pump sends again
	check("a timeout")
	if s := r.n.Stats(); s.RequestTimeouts != 1 || s.Refetches != 1 {
		t.Errorf("%d timeouts, %d refetches; want 1, 1", s.RequestTimeouts, s.Refetches)
	}

	r.locked(func() { r.n.reSourceFrom("c", "/cam/c") })
	r.advance(0)
	check("a lost source")

	r.advance(4 * time.Second) // la's record expires at 10 s: a is asked again
	check("an expiry")
	if q := r.n.queries[id]; !q.reqs["/cam/a"].inFlight {
		t.Error("a's object was not asked for again after its label expired")
	}

	r.locked(func() { r.n.deliverObject(sampleOf("c", r.now), r.now) })
	check("data")
}
