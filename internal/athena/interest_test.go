package athena

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// hasWaiters reports whether a live waiter for obj remains at now.
func (t *InterestTable) hasWaiters(obj string, now time.Time) bool {
	return slices.ContainsFunc(t.reqs[obj].waiters, func(w interestEntry) bool { return w.expires.After(now) })
}

// A duplicate Add must refresh the waiter's expiry: a downstream node that
// keeps re-requesting an object stays interested past the original TTL.
func TestInterestDuplicateAddRefreshesExpiry(t *testing.T) {
	it := NewInterestTable(10 * time.Second)
	it.Add("/cam/x", "o1", "q1", "nb1", 0, tBase)
	// Re-request at +8s: the waiter must now live until +18s, not +10s.
	it.Add("/cam/x", "o1", "q1", "nb1", 0, tBase.Add(8*time.Second))
	ws := it.Waiters("/cam/x", tBase.Add(12*time.Second))
	if len(ws) != 1 {
		t.Fatalf("waiters at +12s = %d, want 1 (expiry refreshed by duplicate Add)", len(ws))
	}
	if ws[0].origin != "o1" {
		t.Errorf("waiter origin = %q", ws[0].origin)
	}
}

// Pending-request lifetime is independent of waiter lifetime: once the
// upstream request's own lifetime lapses, a new interest must be allowed
// to re-forward, even while later-arriving waiters are still live.
// (Conversely, reap of lapsed waiters alone must not clear a live pending
// mark — that is covered by the retransmission tests.)
func TestInterestPendingLifetimeIndependentOfWaiters(t *testing.T) {
	it := NewInterestTable(10 * time.Second)
	// First interest forwards upstream; the request's lifetime runs to +10s.
	if pending := it.Add("/cam/x", "o1", "q1", "nb1", 0, tBase); pending {
		t.Fatal("first Add reported pending")
	}
	// A second origin joins at +5s; its waiter lives until +15s.
	if pending := it.Add("/cam/x", "o2", "q2", "nb2", 0, tBase.Add(5*time.Second)); !pending {
		t.Fatal("second Add did not see the pending request")
	}
	// At +11s the upstream request has lapsed (no data came back). The
	// live o2 waiter must not keep reporting it pending: a fresh interest
	// must trigger a re-forward instead of stranding every waiter.
	if pending := it.Add("/cam/x", "o3", "q3", "nb3", 0, tBase.Add(11*time.Second)); pending {
		t.Fatal("lapsed upstream request still reported pending; new interest stranded")
	}
	if !it.hasWaiters("/cam/x", tBase.Add(11*time.Second)) {
		t.Error("live waiters lost")
	}
}

// A retransmission extends the marked request's lifetime through the next
// retry window, never shortening it, and the last one gives up and drops
// the mark (InterestTable.retransmit).
func TestInterestRefreshAndClearPending(t *testing.T) {
	it := NewInterestTable(5 * time.Second)
	it.Add("/cam/x", "o1", "q1", "nb1", 0, tBase)
	gen := it.reqs["/cam/x"].gen
	if !it.retransmit("/cam/x", gen, false, tBase.Add(20*time.Second), tBase.Add(time.Second)) {
		t.Fatal("a retry with a live waiter under its own mark was not sent")
	}
	if !it.pending("/cam/x", tBase.Add(15*time.Second)) {
		t.Error("refreshed pending lapsed early")
	}
	// Refresh never shortens.
	it.retransmit("/cam/x", gen, false, tBase.Add(time.Second), tBase.Add(2*time.Second))
	if !it.pending("/cam/x", tBase.Add(15*time.Second)) {
		t.Error("a retransmission shortened the lifetime")
	}
	if it.retransmit("/cam/x", gen, true, tBase.Add(30*time.Second), tBase.Add(3*time.Second)) {
		t.Error("the last retry was sent")
	}
	if it.pending("/cam/x", tBase.Add(3*time.Second)) {
		t.Error("cleared pending still reported")
	}
}

// TestInterestEdgeCases drives the independent waiter/pending lifetimes
// through their corner states: waiters lapsing under a live pending mark,
// the pending mark lapsing over surviving waiters, and a post-reap Add
// restarting the pending lifetime from scratch.
func TestInterestEdgeCases(t *testing.T) {
	const obj = "/cam/x"
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, it *InterestTable)
	}{
		{
			// All waiters lapse while the upstream request is still in
			// flight: the reap must not clear the pending mark, or the
			// next Add would race the in-flight request with a duplicate.
			name: "waiter lapse under live pending",
			run: func(t *testing.T, it *InterestTable) {
				it.Add(obj, "o1", "q1", "nb1", 0, tBase)
				it.retransmit(obj, it.reqs[obj].gen, false, tBase.Add(30*time.Second), tBase)
				at := tBase.Add(15 * time.Second) // waiter TTL 10s: lapsed
				if it.hasWaiters(obj, at) {
					t.Fatal("lapsed waiter survived reap")
				}
				if !it.pending(obj, at) {
					t.Fatal("reap of lapsed waiters cleared the live pending mark")
				}
				if pending := it.Add(obj, "o2", "q2", "nb2", 0, at); !pending {
					t.Error("Add after waiter lapse re-forwarded while the request was in flight")
				}
			},
		},
		{
			// The upstream request lapses first (extended by nothing),
			// leaving a younger waiter live: the waiter must survive, and
			// the next Add must report not-pending so the caller
			// re-forwards on the survivor's behalf.
			name: "pending expiry with surviving waiters",
			run: func(t *testing.T, it *InterestTable) {
				it.Add(obj, "o1", "q1", "nb1", 0, tBase)
				it.Add(obj, "o2", "q2", "nb2", 0, tBase.Add(8*time.Second))
				at := tBase.Add(11 * time.Second) // pending ran to +10s
				if it.pending(obj, at) {
					t.Fatal("lapsed pending mark still reported")
				}
				if !it.hasWaiters(obj, at) {
					t.Fatal("younger waiter lost with the pending mark")
				}
				if pending := it.Add(obj, "o3", "q3", "nb3", 0, at); pending {
					t.Error("Add after pending expiry did not ask for a re-forward")
				}
			},
		},
		{
			// Everything lapses, then interest returns: the new Add must
			// start a fresh pending lifetime of the full TTL, not inherit
			// a stale expiry from the reaped generation.
			name: "Add after reap restarts pending lifetime",
			run: func(t *testing.T, it *InterestTable) {
				it.Add(obj, "o1", "q1", "nb1", 0, tBase)
				at := tBase.Add(20 * time.Second) // waiter and pending both gone
				if pending := it.Add(obj, "o2", "q2", "nb2", 0, at); pending {
					t.Fatal("Add after full lapse saw a stale pending mark")
				}
				if !it.pending(obj, at.Add(9*time.Second)) {
					t.Error("restarted pending lifetime shorter than the TTL")
				}
				if it.pending(obj, at.Add(11*time.Second)) {
					t.Error("restarted pending lifetime longer than the TTL")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, NewInterestTable(10*time.Second))
		})
	}
}

// TestFwdReqTransitions is the forwarder's (phase, event) table: each
// phase of an object's record, built at tBase, meets each event a second
// later, and the row says what the event returned, how many waiters are
// left and whether the record still has a live mark. No pair is
// forbidden: a retry timer carries the generation of the mark it was
// armed under, and on a record with no mark it is a stale timer, which
// changes nothing.
func TestFwdReqTransitions(t *testing.T) {
	const obj = "/cam/x"
	phases := []struct {
		name  string
		build func(it *InterestTable)
	}{
		{"none", func(*InterestTable) {}},
		{"waiting, no mark", func(it *InterestTable) { // a retransmission gave up
			it.Add(obj, "o1", "q1", "nb1", 0, tBase)
			it.retransmit(obj, it.reqs[obj].gen, true, tBase, tBase)
		}},
		{"marked, waiter lapsed", func(it *InterestTable) { // o1's budget ran out first
			it.Add(obj, "o1", "q1", "nb1", time.Second/2, tBase)
		}},
		{"marked, waiting", func(it *InterestTable) { it.Add(obj, "o1", "q1", "nb1", 0, tBase) }},
	}
	at := tBase.Add(time.Second)
	events := []struct {
		name string
		// do applies the event to a table whose last generation is gen,
		// and returns what the transition reported.
		do func(it *InterestTable, gen uint64) any
	}{
		{"request", func(it *InterestTable, _ uint64) any { return it.Add(obj, "o2", "q2", "nb2", 0, at) }},
		{"re-request", func(it *InterestTable, _ uint64) any { return it.Add(obj, "o1", "q1", "nb1", 0, at) }},
		{"data", func(it *InterestTable, _ uint64) any { return len(it.Waiters(obj, at)) }},
		{"retry", func(it *InterestTable, gen uint64) any {
			return it.retransmit(obj, gen, false, at.Add(40*time.Second), at)
		}},
		{"last retry", func(it *InterestTable, gen uint64) any { return it.retransmit(obj, gen, true, at, at) }},
		{"stale retry", func(it *InterestTable, gen uint64) any { return it.retransmit(obj, gen+1, false, at, at) }},
		{"re-request after lapse", func(it *InterestTable, _ uint64) any {
			return it.Add(obj, "o1", "q1", "nb1", 0, tBase.Add(31*time.Second))
		}},
	}
	// "returned waiters marked", per phase and event. A request is
	// absorbed (true) under a live mark, and otherwise marked and
	// forwarded; data returns the waiters it serves; a retry reports
	// whether it re-forwards.
	want := map[string]string{
		"none/request":                                 "false 1 true",
		"none/re-request":                              "false 1 true",
		"none/data":                                    "0 0 false",
		"none/retry":                                   "false 0 false",
		"none/last retry":                              "false 0 false",
		"none/stale retry":                             "false 0 false",
		"none/re-request after lapse":                  "false 1 true",
		"waiting, no mark/request":                     "false 2 true",
		"waiting, no mark/re-request":                  "false 1 true", // a duplicate waiter marks too
		"waiting, no mark/data":                        "1 0 false",
		"waiting, no mark/retry":                       "false 1 false",
		"waiting, no mark/last retry":                  "false 1 false",
		"waiting, no mark/stale retry":                 "false 1 false",
		"waiting, no mark/re-request after lapse":      "false 1 true",
		"marked, waiter lapsed/request":                "true 1 true",
		"marked, waiter lapsed/re-request":             "true 1 true",
		"marked, waiter lapsed/data":                   "0 0 false",
		"marked, waiter lapsed/retry":                  "false 0 false", // nobody left to serve: the mark goes
		"marked, waiter lapsed/last retry":             "false 0 false",
		"marked, waiter lapsed/stale retry":            "false 1 true", // reaps nothing
		"marked, waiter lapsed/re-request after lapse": "false 1 true",
		"marked, waiting/request":                      "true 2 true",
		"marked, waiting/re-request":                   "true 1 true",
		"marked, waiting/data":                         "1 0 false",
		"marked, waiting/retry":                        "true 1 true",
		"marked, waiting/last retry":                   "false 1 false",
		"marked, waiting/stale retry":                  "false 1 true",
		"marked, waiting/re-request after lapse":       "false 1 true",
	}
	for _, p := range phases {
		for _, e := range events {
			it := NewInterestTable(30 * time.Second)
			p.build(it)
			gen := it.gen
			ret := e.do(it, gen)
			got := fmt.Sprintf("%v %d %v", ret, len(it.reqs[obj].waiters), it.pending(obj, at))
			if key := p.name + "/" + e.name; got != want[key] {
				t.Errorf("%s: got %q, want %q", key, got, want[key])
			}
		}
	}
	// A retry under the live mark extends it through the next window.
	it := NewInterestTable(30 * time.Second)
	it.Add(obj, "o1", "q1", "nb1", 0, tBase)
	it.retransmit(obj, it.reqs[obj].gen, false, tBase.Add(40*time.Second), at)
	if !it.pending(obj, tBase.Add(35*time.Second)) {
		t.Error("a retransmission did not extend the mark")
	}
}

// A forwarder whose mark for an object is gone, given up or lapsed, while
// a waiter still lives, must forward that waiter's re-request under a
// fresh mark, so that the next origin's request for the object is
// absorbed rather than forwarded a second time. Every upstream forward is
// made under a live mark.
func TestMarklessForward(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retries bool
		// absorbed are the instants of a/q1's re-requests while its first
		// forward is marked; the mark is gone at gone.
		absorbed []time.Duration
		gone     time.Duration
	}{
		// The mark runs to the interest TTL, 30 s.
		{"lapsed mark", false, []time.Duration{20 * time.Second}, 31 * time.Second},
		// Retries at 6.02, 18.04 and 42.06 s; the fourth timer, at
		// 72.08 s, gives up.
		{"given-up mark", true, []time.Duration{20 * time.Second, 45 * time.Second, 70 * time.Second}, 73 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStopRig(t, false, func(c *Config) { c.DisableRetries = !tc.retries })
			forwards := 0
			request := func(req *ObjectRequest) {
				before := len(r.sent)
				r.locked(func() { r.n.handleRequest("a", req) })
				for _, f := range r.sent[before:] {
					if _, ok := f.payload.(*ObjectRequest); ok {
						forwards++
						if !r.n.interest.pending("/cam/c", r.now) {
							t.Errorf("%s's request was forwarded at %v with no live mark", req.QueryID, r.now.Sub(tBase))
						}
					}
				}
			}
			// until moves the clock in 10 ms steps, so that each retry
			// fires within 10 ms of its instant.
			until := func(d time.Duration) {
				for r.now.Before(tBase.Add(d)) {
					r.advance(10 * time.Millisecond)
				}
			}
			request(relayed("a/q1"))
			for _, d := range tc.absorbed {
				until(d)
				request(relayed("a/q1"))
			}
			if forwards != 1 {
				t.Fatalf("%d forwards before the mark went, want 1", forwards)
			}
			until(tc.gone)
			if r.n.interest.pending("/cam/c", r.now) {
				t.Fatal("rig precondition: the mark is still live")
			}
			r.sent = nil
			request(relayed("a/q1"))
			r.advance(time.Second)
			request(&ObjectRequest{QueryID: "x/q9", Origin: "x", Object: "/cam/c", SourceNode: "c", Labels: []string{"lc"}})
			if forwards != 2 {
				t.Errorf("%d forwards, want 2: x/q9's request should be absorbed by the re-request's mark", forwards)
			}
			if !r.n.interest.pending("/cam/c", r.now) {
				t.Error("no mark after the re-request was forwarded")
			}
		})
	}
}

// A waiter lapses at the earlier of the interest TTL and its query's
// deadline, never later than the TTL alone would let it; a duplicate
// request refreshes it by the same rule; and a retransmission carries
// upstream the time left of the last live waiter. An origin sends its
// query's time left, and nothing once none is left: a budget of zero
// would read as none, the waiter's longest life.
func TestWaiterLapsesAtItsQuerysDeadline(t *testing.T) {
	const obj = "/cam/x"
	for _, tc := range []struct {
		budget time.Duration
		lapses time.Duration
	}{
		{0, 30 * time.Second}, // no deadline: the TTL
		{5 * time.Second, 5 * time.Second},
		{90 * time.Second, 30 * time.Second}, // never past the TTL
	} {
		it := NewInterestTable(30 * time.Second)
		it.Add(obj, "o1", "q1", "nb1", tc.budget, tBase)
		if w := it.reqs[obj].waiters; len(w) != 1 || !w[0].expires.Equal(tBase.Add(tc.lapses)) {
			t.Errorf("budget %v: waiter %+v, want it to lapse at +%v", tc.budget, w, tc.lapses)
		}
	}
	it := NewInterestTable(30 * time.Second)
	it.Add(obj, "o1", "q1", "nb1", 5*time.Second, tBase)
	it.Add(obj, "o2", "q2", "nb2", 20*time.Second, tBase.Add(time.Second))
	it.Add(obj, "o1", "q1", "nb1", 2*time.Second, tBase.Add(2*time.Second)) // o1's re-request, nearer its deadline
	at := tBase.Add(3 * time.Second)
	if b := it.budget(obj, at); b != 18*time.Second {
		t.Errorf("budget at +3s = %v, want 18s (o2's waiter lapses at +21s)", b)
	}
	if len(it.Waiters(obj, tBase.Add(4*time.Second))) != 1 {
		t.Error("o1's refreshed waiter outlived its query's deadline (+4s)")
	}
	if b := it.budget(obj, at); b != 0 {
		t.Errorf("budget with no waiter = %v, want 0", b)
	}

	r := newStopRig(t, false)
	id := r.query(t, "la & lc")
	dispatch := func() (budgets []time.Duration) {
		r.sent = nil
		r.locked(func() {
			r.n.dispatchRequest(r.n.queries[id], &ObjectRequest{QueryID: id, Origin: "b", Object: "/cam/c", SourceNode: "c", Labels: []string{"lc"}})
		})
		for _, f := range r.sent {
			if req, ok := f.payload.(*ObjectRequest); ok {
				budgets = append(budgets, req.Budget)
			}
		}
		return budgets
	}
	r.now = tBase.Add(time.Minute - time.Second)
	if got := dispatch(); !slices.Equal(got, []time.Duration{time.Second}) {
		t.Errorf("a request sent 1 s before its query's deadline carried budgets %v, want [1s]", got)
	}
	for _, past := range []time.Duration{0, time.Millisecond / 2} {
		r.now = tBase.Add(time.Minute + past)
		if got := dispatch(); len(got) != 0 {
			t.Errorf("a request dispatched %v past its query's deadline was sent with budgets %v", past, got)
		}
	}
}
