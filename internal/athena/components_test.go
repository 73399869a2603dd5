package athena

import (
	"fmt"
	"testing"
	"time"

	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/trust"
)

// TestComponentsNilWhenOff holds the shape of DESIGN §3.5 for the two
// components of the data path: each exists exactly when its option is on,
// a node announces its queries iff it has a prefetcher, and what every node
// owes the fleet with or without one — Prewarm's flood, relaying an
// announce once — stays in the core.
func TestComponentsNilWhenOff(t *testing.T) {
	for _, prefetchOn := range []bool{false, true} {
		for _, window := range []time.Duration{0, 10 * time.Millisecond} {
			t.Run(fmt.Sprintf("prefetch=%v/window=%v", prefetchOn, window), func(t *testing.T) {
				r := buildMesh(t, SchemeLVF, line5, func(cfg *Config) {
					cfg.DisablePrefetch, cfg.CoalesceWindow = !prefetchOn, window
				})
				for id, n := range r.nodes {
					if (n.prefetch != nil) != prefetchOn || (n.coalesce != nil) != (window > 0) {
						t.Errorf("%s: prefetcher %v, coalescer %v", id, n.prefetch != nil, n.coalesce != nil)
					}
				}
				a, b := r.nodes["a"], r.nodes["b"]
				if _, err := a.QueryInit(mustDNF("lc"), 20*time.Second); err != nil {
					t.Fatal(err)
				}
				r.run(t, 30*time.Second)
				announced := 0
				if prefetchOn {
					announced = 1
				}
				if got := a.Stats().AnnouncesSent; got != announced {
					t.Errorf("QueryInit sent %d announces, want %d", got, announced)
				}
				if err := a.Prewarm(mustDNF("ld")); err != nil {
					t.Fatal(err)
				}
				r.run(t, time.Minute)
				if got := a.Stats().AnnouncesSent; got != announced+1 {
					t.Errorf("after Prewarm a has sent %d announces, want %d", got, announced+1)
				}
				// b relayed each announce that reached it once, and a second
				// copy of the last one is a duplicate that goes nowhere.
				before := b.Stats()
				if before.AnnouncesSent != announced+1 {
					t.Errorf("b relayed %d announces, want %d", before.AnnouncesSent, announced+1)
				}
				dup := &QueryAnnounce{
					QueryID: fmt.Sprintf("a/warm%d", a.querySeq), Origin: "a", Expr: "ld",
					Deadline: r.sched.Now().Add(time.Minute), TTL: prefetchHops,
				}
				b.handleMessage("a", dup.WireSize(), dup)
				if st := b.Stats(); st.AnnounceDups != before.AnnounceDups+1 || st.AnnouncesSent != before.AnnouncesSent {
					t.Errorf("b on a second copy: %d duplicates (was %d), %d sent (was %d)",
						st.AnnounceDups, before.AnnounceDups, st.AnnouncesSent, before.AnnouncesSent)
				}
				if pushes := b.Stats().PrefetchPushes + r.nodes["c"].Stats().PrefetchPushes; (pushes > 0) != prefetchOn {
					t.Errorf("%d prefetch pushes with prefetch on = %v", pushes, prefetchOn)
				}
			})
		}
	}
}

// TestSeenAnnounceIsBounded: a relay remembers an announce until its
// deadline and no longer. Three sweeps' worth of short-lived announces pass
// through b; it never holds more than the sweep size plus the newcomer, and
// a copy that arrives after its deadline — whose entry is gone — is dropped
// on arrival, not flooded again.
func TestSeenAnnounceIsBounded(t *testing.T) {
	r := buildMesh(t, SchemeLVF, line5, nil)
	b := r.nodes["b"]
	announce := func(i int, deadline time.Time) *QueryAnnounce {
		return &QueryAnnounce{QueryID: fmt.Sprintf("a/x%d", i), Origin: "a", Expr: "lzz", Deadline: deadline, TTL: prefetchHops}
	}
	const n = 3 * seenAnnounceSweep
	first := announce(0, tBase.Add(time.Second))
	for i := 0; i < n; i++ {
		r.run(t, time.Duration(i)*10*time.Millisecond)
		a := announce(i, r.sched.Now().Add(time.Second))
		b.handleMessage("a", a.WireSize(), a)
		if len(b.seenAnnounce) > seenAnnounceSweep+1 {
			t.Fatalf("after %d announces b remembers %d, past the sweep size %d", i+1, len(b.seenAnnounce), seenAnnounceSweep)
		}
	}
	if got := b.Stats().AnnouncesSent; got != n {
		t.Fatalf("b relayed %d of %d announces", got, n)
	}
	if _, held := b.seenAnnounce[first.QueryID]; held {
		t.Errorf("b still remembers %s, whose deadline passed %v ago", first.QueryID, r.sched.Now().Sub(first.Deadline))
	}
	b.handleMessage("a", first.WireSize(), first)
	if st := b.Stats(); st.AnnouncesSent != n || st.AnnounceDups != 0 {
		t.Errorf("a copy past its deadline: %d announces sent (want %d), %d duplicates (want 0)", st.AnnouncesSent, n, st.AnnounceDups)
	}
	if _, held := b.seenAnnounce[first.QueryID]; held {
		t.Error("a copy past its deadline was remembered")
	}
}

// TestForegroundRequestIgnoresPrefetchPacing: b owes three background
// pushes; the first goes at once and the other two wait out prefetchDelay
// each. A query b issues inside that wait is b's own foreground traffic and
// its request leaves at that instant — it used to sit in the fetch queue
// until the pacing timer fired, up to 250 ms.
func TestForegroundRequestIgnoresPrefetchPacing(t *testing.T) {
	r := buildMesh(t, SchemeLVF, line5, nil)
	b := r.nodes["b"]
	for i := 0; i < 3; i++ {
		a := &QueryAnnounce{QueryID: fmt.Sprintf("a/x%d", i), Origin: "a", Expr: "lb", Deadline: tBase.Add(time.Minute), TTL: 1}
		b.handleMessage("a", a.WireSize(), a)
	}
	r.run(t, 100*time.Millisecond)
	if got := b.Stats().PrefetchPushes; got != 1 {
		t.Fatalf("b pushed %d times in the first 100 ms, want 1 (the rest are paced)", got)
	}
	if _, err := b.QueryInit(mustDNF("lc"), time.Minute); err != nil {
		t.Fatal(err)
	}
	r.run(t, 150*time.Millisecond) // well inside the 250 ms pacing window
	if got := r.tap.frames["*athena.ObjectRequest"]; got != 1 {
		t.Errorf("%d requests delivered 50 ms after b's query, want 1: the fetch queue waited on prefetch pacing", got)
	}
}

// coalesceRig is one node on a recording transport with a clock the test
// moves and timers the test fires, so every frame the coalescer lets out,
// and when, is the test's to see.
type coalesceRig struct {
	recTransport
	now    time.Time
	timers []armedTimer
	n      *Node
}

type armedTimer struct {
	at time.Time
	fn func()
}

func (r *coalesceRig) Clock() simclock.Clock { return r }
func (r *coalesceRig) Now() time.Time        { return r.now }
func (r *coalesceRig) After(d time.Duration, fn func()) {
	r.timers = append(r.timers, armedTimer{r.now.Add(d), fn})
}
func (r *coalesceRig) AfterArg(d time.Duration, fn func(any), arg any) {
	r.After(d, func() { fn(arg) })
}

// advance moves the clock and fires what came due.
func (r *coalesceRig) advance(d time.Duration) {
	r.now = r.now.Add(d)
	due := r.timers
	r.timers = nil
	for _, tm := range due {
		if tm.at.After(r.now) {
			r.timers = append(r.timers, tm)
		} else {
			tm.fn()
		}
	}
}

// dispatch sends the frames to neighbor c as one top-level dispatch would:
// under the lock, with the burst flush when it ends.
func (r *coalesceRig) dispatch(msgs ...frame) {
	r.n.mu.Lock()
	defer r.n.mu.Unlock()
	defer r.n.flushBursts()
	for _, m := range msgs {
		r.n.toNeighbor("c", m, m.WireSize(), 0)
	}
}

// offer hands one frame to the link to c with the dispatch still running:
// no burst flush follows.
func (r *coalesceRig) offer(m frame) {
	r.n.mu.Lock()
	defer r.n.mu.Unlock()
	r.n.toNeighbor("c", m, m.WireSize(), 0)
}

// take returns and forgets what has been sent so far.
func (r *coalesceRig) take() []sentFrame {
	sent := r.sent
	r.sent = nil
	return sent
}

const testWindow = 10 * time.Millisecond

func newCoalesceRig(t *testing.T, budget int64) *coalesceRig {
	t.Helper()
	r := &coalesceRig{now: tBase}
	auth := trust.NewAuthority()
	n, err := New(Config{
		ID: "b", Transport: r, Router: &StaticRouter{Self: "b"}, Timers: r,
		Scheme: SchemeLVF, Directory: NewDirectory([]object.Descriptor{dispatchDesc("a"), dispatchDesc("c")}),
		Authority: auth, Signer: auth.Register("b", []byte("k-b")), Policy: trust.TrustAll(),
		DisablePrefetch: true, CoalesceWindow: testWindow, CoalesceBytes: budget,
		CriticalPrefix: names.MustParse("/crit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.n = n
	return r
}

// TestCoalescerEnqueue runs every rule of the flush policy (DESIGN §3.3)
// through toNeighbor once per kind of data-plane message. Both kinds go
// through the one Node.enqueue, so the table is one list of cases and the
// kinds differ only in how a member is built and what its batch looks
// like; a second enqueue forked for one kind would have to pass it too.
func TestCoalescerEnqueue(t *testing.T) {
	kinds := []struct {
		name    string
		mk      func(object, queryID string) frame
		cost    int64 // one member's share of the byte budget
		members func(payload any) int
	}{
		{"request", func(object, queryID string) frame {
			return &ObjectRequest{QueryID: queryID, Origin: "a", Object: object, SourceNode: "c", Labels: []string{"lc"}}
		}, batchedRequestBytes, func(p any) int {
			if b, ok := p.(*RequestBatch); ok {
				return len(b.Requests)
			}
			return 0
		}},
		{"data", func(object, queryID string) frame {
			return &ObjectData{Object: object, Version: 1, Size: 1000, Origin: "c", QueryID: queryID, SourceNode: "a"}
		}, batchedDataHeaderBytes + 1000, func(p any) int {
			if b, ok := p.(*DataBatch); ok {
				return len(b.Items)
			}
			return 0
		}},
	}
	for _, k := range kinds {
		// busy returns a rig whose link to c has just shipped a frame, so
		// whatever follows within the window coalesces behind it.
		busy := func(t *testing.T, budget int64) *coalesceRig {
			r := newCoalesceRig(t, budget)
			r.dispatch(k.mk("/cam/first", "a/q0"))
			if sent := r.take(); len(sent) != 1 || k.members(sent[0].payload) != 0 || len(r.timers) != 0 {
				t.Fatalf("first message on an idle link: sent %+v, %d timers armed; want it shipped natively at once", sent, len(r.timers))
			}
			return r
		}
		native := func(t *testing.T, sent []sentFrame, n int) {
			t.Helper()
			if len(sent) != n {
				t.Fatalf("sent %d frames, want %d native ones: %+v", len(sent), n, sent)
			}
			for _, s := range sent {
				if k.members(s.payload) != 0 {
					t.Errorf("sent a batch, want a native frame: %+v", s)
				}
			}
		}
		batch := func(t *testing.T, sent []sentFrame, members int) {
			t.Helper()
			if len(sent) != 1 || k.members(sent[0].payload) != members || sent[0].priority != 0 {
				t.Fatalf("sent %+v, want one default-priority batch of %d", sent, members)
			}
		}
		t.Run(k.name+"/idle link sends at once, again after a quiet window", func(t *testing.T) {
			r := busy(t, 1<<20)
			r.advance(testWindow)
			r.dispatch(k.mk("/cam/x", "a/q1"))
			native(t, r.take(), 1)
		})
		t.Run(k.name+"/critical prefix bypasses the queue", func(t *testing.T) {
			r := busy(t, 1<<20)
			r.dispatch(k.mk("/crit/x", "a/q1"))
			native(t, r.take(), 1)
			if len(r.timers) != 0 || len(r.n.coalesce.burst) != 0 {
				t.Errorf("a critical message touched the queue: %d timers, %d burst queues", len(r.timers), len(r.n.coalesce.burst))
			}
		})
		t.Run(k.name+"/lone straggler keeps its timer", func(t *testing.T) {
			r := busy(t, 1<<20)
			r.dispatch(k.mk("/cam/x", "a/q1"))
			if sent := r.take(); len(sent) != 0 || len(r.timers) != 1 {
				t.Fatalf("a lone queued message: sent %+v, %d timers; want it held behind one timer", sent, len(r.timers))
			}
			r.advance(testWindow - time.Millisecond)
			native(t, r.take(), 0)
			r.advance(time.Millisecond)
			native(t, r.take(), 1) // a one-member batch would cost more than it saves
		})
		t.Run(k.name+"/burst of two flushes when the dispatch ends", func(t *testing.T) {
			r := busy(t, 1<<20)
			r.dispatch(k.mk("/cam/x", "a/q1"), k.mk("/cam/y", "a/q2"))
			batch(t, r.take(), 2)
			r.advance(testWindow) // the timer the first member armed finds nothing
			native(t, r.take(), 0)
		})
		t.Run(k.name+"/byte budget flushes mid-dispatch", func(t *testing.T) {
			r := busy(t, 2*k.cost)
			r.offer(k.mk("/cam/x", "a/q1"))
			native(t, r.take(), 0)
			r.offer(k.mk("/cam/y", "a/q2"))
			batch(t, r.take(), 2)
		})
		t.Run(k.name+"/no deadline slack, no wait", func(t *testing.T) {
			r := busy(t, 1<<20)
			// A local query for a label nobody sources sends nothing, and
			// has under coalesceSlackFactor windows left from the start.
			id, err := r.n.QueryInit(mustDNF("lzz"), (coalesceSlackFactor-1)*testWindow)
			if err != nil {
				t.Fatal(err)
			}
			r.offer(k.mk("/cam/x", id))
			native(t, r.take(), 1)
		})
	}
}
