package athena_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
)

// staticWorld is a fixed ground truth, duplicated from the in-package
// tests (this file lives in the external test package so it can use the
// internal/wire codec, which itself imports athena).
type staticWorld map[string]bool

func (w staticWorld) LabelValue(label string, _ time.Time) bool { return w[label] }

// TestTCPThreeNodeRelay runs three Athena nodes as the paper deployed
// them — separate endpoints addressed by IP:PORT — with the origin and
// source not directly connected: origin <-> relay <-> source. The query
// must resolve through real TCP sockets with hop-by-hop forwarding.
func TestTCPThreeNodeRelay(t *testing.T) {
	world := staticWorld{"remoteA": true, "remoteB": true}
	desc := object.Descriptor{
		Name:     names.MustParse("/tcp/cam"),
		Size:     100_000,
		Validity: time.Minute,
		Labels:   []string{"remoteA", "remoteB"},
		Source:   "source",
		ProbTrue: 0.8,
	}
	dir := athena.NewDirectory([]object.Descriptor{desc})
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{
		"remoteA": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
		"remoteB": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
	}

	mk := func(id string, d *object.Descriptor, routes map[string]string) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		node, err := athena.New(athena.Config{
			ID:        id,
			Transport: tr,
			Router:    &athena.StaticRouter{Self: id, NextHops: routes},
			Timers:    athena.WallTimers{},
			Scheme:    athena.SchemeLVFL,
			Directory: dir,
			Meta:      meta,
			World:     world,
			Authority: auth,
			Signer:    auth.Register(id, []byte(id)),
			Policy:    trust.TrustAll(),

			Descriptor: d,
			CacheBytes: 8 << 20,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	// origin can only dial relay; source can only dial relay.
	origin, originTr := mk("origin", nil, map[string]string{"source": "relay"})
	defer originTr.Close()
	_, relayTr := mk("relay", nil, nil)
	defer relayTr.Close()
	_, sourceTr := mk("source", &desc, map[string]string{"origin": "relay"})
	defer sourceTr.Close()

	originTr.AddPeer("relay", relayTr.Addr())
	relayTr.AddPeer("origin", originTr.Addr())
	relayTr.AddPeer("source", sourceTr.Addr())
	sourceTr.AddPeer("relay", relayTr.Addr())

	done := make(chan athena.QueryResult, 1)
	origin.OnQueryDone(func(r athena.QueryResult) { done <- r })
	expr := boolexpr.ToDNF(boolexpr.MustParse("remoteA & remoteB"))
	if _, err := origin.QueryInit(expr, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Status != core.ResolvedTrue {
			t.Fatalf("status = %v", r.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for decision over TCP")
	}
}

// socketPair is a consumer with no room to cache and a source of one
// 2 KB object labelled label, each in its own endpoint, joined by a
// socket. Each node runs on WallTimers unless configure, when not nil,
// changes that or anything else in the node's Config.
type socketPair struct {
	consumer, src *athena.Node
	// decide makes n back-to-back decisions on the consumer, each fetched
	// over the socket, and fails the test on any that does not resolve
	// true.
	decide func(n int)
	// close closes both endpoints and lets go of them; the test's cleanup
	// calls it too.
	close func()
}

func newSocketPair(tb testing.TB, label string, configure func(id string, c *athena.Config)) *socketPair {
	tb.Helper()
	world := staticWorld{label: true}
	desc := object.Descriptor{
		Name: names.MustParse("/tcp/" + label + "/cam"), Size: 2_000, Validity: time.Minute,
		Labels: []string{label}, Source: "src", ProbTrue: 0.8,
	}
	dir := athena.NewDirectory([]object.Descriptor{desc})
	auth := trust.NewAuthority()
	var trs []*transport.TCPTransport
	closePair := func() {
		for _, tr := range trs {
			tr.Close()
		}
		trs = nil
	}
	tb.Cleanup(closePair)
	mk := func(id string, d *object.Descriptor, cacheBytes int64) (*athena.Node, *transport.TCPTransport) {
		tb.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			tb.Fatal(err)
		}
		trs = append(trs, tr)
		cfg := athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: athena.WallTimers{}, Scheme: athena.SchemeLVF, Directory: dir,
			Meta:  boolexpr.MetaTable{label: {Cost: 2_000, ProbTrue: 0.8, Validity: time.Minute}},
			World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: cacheBytes,
			// Back-to-back decisions ask for one object a fraction of a
			// millisecond apart; at the default allowance the source would
			// take the second for a duplicate of a transfer still in
			// flight and leave it to its 6 s retry.
			RetryBandwidth: 1e12,
		}
		if configure != nil {
			configure(id, &cfg)
		}
		node, err := athena.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return node, tr
	}
	consumer, trC := mk("consumer", nil, 1)
	src, trSrc := mk("src", &desc, 8<<20)
	trC.AddPeer("src", trSrc.Addr())
	trSrc.AddPeer("consumer", trC.Addr())

	done := make(chan athena.QueryResult, 1)
	consumer.OnQueryDone(func(r athena.QueryResult) { done <- r })
	expr := boolexpr.ToDNF(boolexpr.MustParse(label))
	return &socketPair{consumer: consumer, src: src, close: closePair, decide: func(n int) {
		tb.Helper()
		for i := 0; i < n; i++ {
			if _, err := consumer.QueryInit(expr, 20*time.Second); err != nil {
				tb.Fatal(err)
			}
			// A stopped timer, not time.After: at this module's go version
			// an unstopped one stays on the heap until it fires.
			timeout := time.NewTimer(30 * time.Second)
			select {
			case r := <-done:
				timeout.Stop()
				if r.Status != core.ResolvedTrue {
					tb.Fatalf("decision %d: %v", i, r.Status)
				}
			case <-timeout.C:
				tb.Fatalf("decision %d timed out", i)
			}
		}
	}}
}

// countedTimers is WallTimers counting the timers it arms, those that
// fire and those stopped before firing.
type countedTimers struct {
	armed, fired, stopped atomic.Int64
	// changed is nudged whenever a timer fires or is stopped.
	changed chan struct{}
}

func newCountedTimers() *countedTimers { return &countedTimers{changed: make(chan struct{}, 1)} }

func (c *countedTimers) After(d time.Duration, fn func()) { c.AfterStop(d, fn) }
func (c *countedTimers) AfterArg(d time.Duration, fn func(any), arg any) {
	c.AfterStop(d, func() { fn(arg) })
}
func (c *countedTimers) AfterStop(d time.Duration, fn func()) athena.Stopper {
	c.armed.Add(1)
	return countedTimer{c, athena.WallTimers{}.AfterStop(d, func() {
		c.count(&c.fired)
		fn()
	})}
}

func (c *countedTimers) count(n *atomic.Int64) {
	n.Add(1)
	select {
	case c.changed <- struct{}{}:
	default:
	}
}

// pending is how many timers are armed and have neither fired nor been
// stopped.
func (c *countedTimers) pending() int64 { return c.armed.Load() - c.fired.Load() - c.stopped.Load() }

// drained waits up to timeout for no timer to be pending and reports
// whether that happened.
func (c *countedTimers) drained(timeout time.Duration) bool {
	limit := time.NewTimer(timeout)
	defer limit.Stop()
	for c.pending() != 0 {
		select {
		case <-c.changed:
		case <-limit.C:
			return c.pending() == 0
		}
	}
	return true
}

type countedTimer struct {
	c *countedTimers
	athena.Stopper
}

func (t countedTimer) Stop() bool {
	stopped := t.Stopper.Stop()
	if stopped {
		t.c.count(&t.c.stopped)
	}
	return stopped
}

// endTimers is WallTimers whose armed timers are all stopped when the test
// ends. A node has no stop of its own and its protocol period re-arms
// itself, so on plain WallTimers a membership node ticks on through every
// later test in the binary, and into their allocation counts
// (TestViewBuildAllocsFlat's).
type endTimers struct {
	mu    sync.Mutex
	ended bool
	armed map[*time.Timer]bool
}

func newEndTimers(t *testing.T) *endTimers {
	e := &endTimers{armed: make(map[*time.Timer]bool)}
	t.Cleanup(func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.ended = true
		for tm := range e.armed {
			tm.Stop()
		}
		clear(e.armed)
	})
	return e
}

func (e *endTimers) After(d time.Duration, fn func()) { e.AfterStop(d, fn) }
func (e *endTimers) AfterArg(d time.Duration, fn func(any), arg any) {
	e.AfterStop(d, func() { fn(arg) })
}

// AfterStop arms fn until the test ends; a timer leaves the armed set when
// it fires or is stopped.
func (e *endTimers) AfterStop(d time.Duration, fn func()) athena.Stopper {
	e.mu.Lock()
	defer e.mu.Unlock()
	var tm *time.Timer
	tm = time.AfterFunc(max(d, 0), func() {
		// tm is read under e.mu, which AfterStop holds while it assigns
		// tm: the lock is what orders that write before this read.
		e.mu.Lock()
		delete(e.armed, tm)
		running := !e.ended
		e.mu.Unlock()
		if running {
			fn()
		}
	})
	if e.ended {
		tm.Stop()
	} else {
		e.armed[tm] = true
	}
	return endTimer{e, tm}
}

// disarm takes tm out of the armed set.
func (e *endTimers) disarm(tm *time.Timer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.armed, tm)
}

type endTimer struct {
	e  *endTimers
	tm *time.Timer
}

func (t endTimer) Stop() bool {
	t.e.disarm(t.tm)
	return t.tm.Stop()
}

// TestTCPFinishedQueriesLeaveNode is the socket half of the soak: a
// consumer with no room to cache makes 500 decisions against a source in
// another endpoint, each resolving true on evidence fetched over the
// socket, and both nodes end holding no query and no timer: the
// wall-clock watchdog and request timeout of each decision would fire 6 to
// 20 s later, and are stopped when the decision is recorded and its
// request answered; what is armed for a moment (a drain, a completion
// callback) fires at once. The one row keeps the name it had beside a
// prefetch-on row, from when a node could push evidence ahead of a request.
func TestTCPFinishedQueriesLeaveNode(t *testing.T) {
	t.Run("prefetch off", func(t *testing.T) {
		timers := map[string]*countedTimers{"consumer": newCountedTimers(), "src": newCountedTimers()}
		p := newSocketPair(t, "soak1", func(id string, c *athena.Config) { c.Timers = timers[id] })
		const decisions = 500
		p.decide(decisions)
		for name, n := range map[string]*athena.Node{"consumer": p.consumer, "src": p.src} {
			if known, live := n.QueryCounts(); known != 0 || live != 0 {
				t.Errorf("%s ends with %d queries, %d live; want none", name, known, live)
			}
			c := timers[name]
			if !c.drained(5 * time.Second) {
				t.Errorf("%s ends with %d timers armed (%d armed, %d fired, %d stopped); want none",
					name, c.pending(), c.armed.Load(), c.fired.Load(), c.stopped.Load())
			}
		}
		if got := p.src.Stats().CacheAnswers; got < decisions-1 {
			t.Errorf("the source answered %d requests; the consumer was meant to fetch every decision's evidence", got)
		}
	})
}

// BenchmarkTCPClosedPairHeld makes b.N decisions on a socket pair of
// WallTimers nodes, wired as the socket benchmark fleet is, then closes
// the pair and drops it. held-B/op is the heap the closed pair still
// holds, per decision: zero once both nodes have been
// collected, and otherwise the heap in use against the heap before the
// pair was built. Timers that outlive their decision hold the whole pair
// until the last of them fires, 6 to 20 s on; stopped when the decision
// is settled, they hold nothing. ci.sh gates it.
func BenchmarkTCPClosedPairHeld(b *testing.B) {
	// A pair built, used and closed first takes what the socket path's
	// first use allocates for good (codec tables, runtime settings).
	warm := newSocketPair(b, "held0", nil)
	warm.decide(1)
	warm.close()
	warm = nil
	base := liveHeap()
	// A node is in a cycle with its transport (whose handler is the
	// node's), and a finalizer in a cycle never runs; the node's router
	// is held by the node alone, so it goes when the node does.
	collected := make(chan struct{}, 2)
	p := newSocketPair(b, "held1", func(_ string, c *athena.Config) {
		runtime.SetFinalizer(c.Router, func(athena.Router) { collected <- struct{}{} })
	})
	b.ReportAllocs()
	b.ResetTimer()
	p.decide(b.N)
	b.StopTimer()
	p.close()
	p = nil
	var held int64
	if !finalized(collected, 2, time.Second) {
		held = liveHeap() - base
	}
	b.ReportMetric(float64(held)/float64(b.N), "held-B/op")
}

// finalized collects until n finalizers have reported on done, and
// reports whether they did before the timeout.
func finalized(done <-chan struct{}, n int, timeout time.Duration) bool {
	limit := time.NewTimer(timeout)
	defer limit.Stop()
	again := time.NewTicker(10 * time.Millisecond)
	defer again.Stop()
	for runtime.GC(); n > 0; {
		select {
		case <-done:
			n--
		case <-again.C:
			runtime.GC()
		case <-limit.C:
			return false
		}
	}
	return true
}

// liveHeap is the heap in use after two collections; the second empties
// every sync.Pool, so pooled buffers do not count.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestTCPStatusUnderLoad reads /statusz's document from a second goroutine
// while a socket pair serves decisions: the registry's collector takes the
// node lock the socket handlers hold, so under -race this is the check
// that reading counts at snapshot time is safe. No count may fall from one
// snapshot to the next. The decisions run in two halves with a completed
// poll between them: the poller reports a poll only after it has seen
// that no stop came, so the poll after it has begun when the second half
// ends, and at least two polls overlap the decisions however the two
// goroutines are scheduled.
func TestTCPStatusUnderLoad(t *testing.T) {
	p := newSocketPair(t, "load1", func(_ string, c *athena.Config) { c.Metrics = metrics.NewRegistry() })
	consumer, src := p.consumer, p.src
	stop := make(chan struct{})
	polled := make(chan error, 1)
	progress := make(chan struct{}, 1)
	go func() {
		last := map[*athena.Node]map[string]int64{}
		for polls := 1; ; polls++ {
			for _, n := range []*athena.Node{consumer, src} {
				counters := n.StatusSnapshot().Metrics.Counters
				for name, v := range last[n] {
					if counters[name] < v {
						polled <- fmt.Errorf("%s: counter %s fell from %d to %d", n.ID(), name, v, counters[name])
						return
					}
				}
				last[n] = counters
			}
			select {
			case <-stop:
				if polls < 2 {
					polled <- fmt.Errorf("only %d polls overlapped the decisions", polls)
				}
				close(polled)
				return
			default:
			}
			select {
			case progress <- struct{}{}:
			default:
			}
		}
	}()
	const decisions = 100
	p.decide(decisions / 2)
	timeout := time.NewTimer(30 * time.Second)
	select {
	case <-progress:
		timeout.Stop()
	case err := <-polled:
		t.Fatal(err)
	case <-timeout.C:
		close(stop)
		t.Fatal("no status poll completed in 30 s")
	}
	p.decide(decisions - decisions/2)
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if s := src.StatusSnapshot(); s.Metrics.Counter("cache.hits") == 0 {
		t.Errorf("the source's registry counted no content-store hits after %d decisions: %v", decisions, s.Metrics.Counters)
	}
}

// shareTap is a TCP transport that reports, on handled, every LabelShare
// its node has finished handling — the moment the records are in that
// node's label cache.
type shareTap struct {
	*transport.TCPTransport
	handled chan struct{}
}

func (s shareTap) SetHandler(h transport.Handler) {
	s.TCPTransport.SetHandler(func(from string, size int64, payload any) {
		h(from, size, payload)
		if _, ok := payload.(*athena.LabelShare); ok {
			s.handled <- struct{}{}
		}
	})
}

// TestTCPLabelSharingAcrossProcesses verifies that a second consumer is
// answered with signed label records over TCP after the first resolved
// the same predicates: a label answer is the only way consumerB can
// resolve without fetching the object.
func TestTCPLabelSharingAcrossProcesses(t *testing.T) {
	world := staticWorld{"shared1": true}
	desc := object.Descriptor{
		Name:     names.MustParse("/tcp/share/cam"),
		Size:     500_000,
		Validity: time.Minute,
		Labels:   []string{"shared1"},
		Source:   "src",
		ProbTrue: 0.8,
	}
	dir := athena.NewDirectory([]object.Descriptor{desc})
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"shared1": {Cost: 500_000, ProbTrue: 0.8, Validity: time.Minute}}

	mk := func(id string, d *object.Descriptor) (*athena.Node, shareTap) {
		t.Helper()
		tcp, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		// One LabelShare reaches each node in this test; the buffer lets
		// the read loop move on whether or not the test waits for it.
		tr := shareTap{TCPTransport: tcp, handled: make(chan struct{}, 1)}
		node, err := athena.New(athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: athena.WallTimers{}, Scheme: athena.SchemeLVFL, Directory: dir,
			Meta: meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	consumerA, trA := mk("consumerA", nil)
	defer trA.Close()
	consumerB, trB := mk("consumerB", nil)
	defer trB.Close()
	src, trSrc := mk("src", &desc)
	defer trSrc.Close()

	// Both consumers talk to the source directly; B's request should be
	// answered from the source's label cache after A's annotation labels
	// propagate back (dest = source).
	trA.AddPeer("src", trSrc.Addr())
	trB.AddPeer("src", trSrc.Addr())
	trSrc.AddPeer("consumerA", trA.Addr())
	trSrc.AddPeer("consumerB", trB.Addr())

	expr := boolexpr.ToDNF(boolexpr.MustParse("shared1"))
	resolve := func(name string, n *athena.Node) {
		t.Helper()
		done := make(chan athena.QueryResult, 1)
		n.OnQueryDone(func(r athena.QueryResult) { done <- r })
		if _, err := n.QueryInit(expr, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-done:
			if r.Status != core.ResolvedTrue {
				t.Fatalf("%s status = %v", name, r.Status)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s timed out", name)
		}
	}

	resolve("consumerA", consumerA)
	// consumerB asks only once consumerA's records are cached at the source.
	select {
	case <-trSrc.handled:
	case <-time.After(30 * time.Second):
		t.Fatal("consumerA's label share never reached the source")
	}
	resolve("consumerB", consumerB)

	if got := src.Stats().LabelAnswers; got != 1 {
		t.Errorf("source LabelAnswers = %d, want 1: consumerB's request was not answered from the label cache", got)
	}
	if got := consumerB.Stats().Annotations; got != 0 {
		t.Errorf("consumerB annotated %d labels itself; it should have been sent records, not the object", got)
	}
}

// TestTCPMembershipLifecycle drives the full membership arc over real
// sockets — the exact code path the simulator exercises: three sources
// join an origin through the PeerJoin handshake (no static directory —
// the origin starts knowing nobody), a query resolves via the cheapest
// source, that source leaves gracefully (tombstone), a second source dies
// ungracefully (heartbeat eviction), and a final query is re-sourced to
// the last source standing.
func TestTCPMembershipLifecycle(t *testing.T) {
	world := staticWorld{"live": true}
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"live": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute}}
	descFor := func(id string, size int64) *object.Descriptor {
		return &object.Descriptor{
			Name:     names.MustParse("/tcp/member/" + id),
			Size:     size,
			Validity: time.Minute,
			Labels:   []string{"live"},
			Source:   id,
			ProbTrue: 0.8,
		}
	}

	timers := newEndTimers(t)
	mk := func(id string, d *object.Descriptor) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		// Fail sends to dead peers fast: membership sends hold the node
		// lock, and eviction is how dead peers are handled anyway.
		tr.SetRetryPolicy(1, 0)
		node, err := athena.New(athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: timers, Scheme: athena.SchemeLVF,
			Directory: athena.NewDirectory(nil), // learned entirely from joins
			Meta:      meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20,
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	origin, trOrigin := mk("origin", nil)
	defer trOrigin.Close()
	srcA, trA := mk("srcA", descFor("srcA", 100_000))
	defer trA.Close()
	srcB, trB := mk("srcB", descFor("srcB", 200_000))
	defer trB.Close()
	srcC, trC := mk("srcC", descFor("srcC", 300_000))
	defer trC.Close()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Join handshake: each source knows only the origin's address; the
	// origin learns theirs from the PeerJoin, and the acks carry the peer
	// map so later joiners can complete the mesh.
	for _, s := range []struct {
		n  *athena.Node
		tr *transport.TCPTransport
	}{{srcA, trA}, {srcB, trB}, {srcC, trC}} {
		s.tr.AddPeer("origin", trOrigin.Addr())
		if err := s.n.Join("origin"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("origin to admit all three sources", func() bool {
		d := origin.Directory()
		return d.Has("srcA") && d.Has("srcB") && d.Has("srcC")
	})

	// Query 1 resolves via srcA, the cheapest advertised source.
	expr := boolexpr.ToDNF(boolexpr.MustParse("live"))
	run := func(name string) {
		t.Helper()
		done := make(chan athena.QueryResult, 1)
		origin.OnQueryDone(func(r athena.QueryResult) { done <- r })
		if _, err := origin.QueryInit(expr, 15*time.Second); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-done:
			if r.Status != core.ResolvedTrue {
				t.Fatalf("%s: status = %v", name, r.Status)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: timed out", name)
		}
	}
	run("query via srcA")
	if origin.Directory().SourceForLabel("live", nil) != "srcA" {
		t.Fatalf("expected srcA to be the preferred source")
	}

	// Graceful leave: srcA floods a tombstone; everyone drops it at once.
	if err := srcA.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor("srcA tombstone at origin", func() bool {
		_, present, withdrawn := origin.Directory().Known("srcA")
		return !present && withdrawn
	})
	waitFor("srcA tombstone at srcC", func() bool {
		_, present, withdrawn := srcC.Directory().Known("srcA")
		return !present && withdrawn
	})

	// Ungraceful death: srcB's transport is severed; the origin's failure
	// detector evicts it after the missed-heartbeat budget.
	trB.Close()
	waitFor("srcB eviction at origin", func() bool {
		return !origin.Directory().Has("srcB")
	})
	if origin.Stats().Evictions == 0 {
		t.Fatal("srcB disappeared without an eviction")
	}

	// Query 2 must be re-sourced to srcC, the last source standing.
	run("query re-sourced to srcC")
	if got := origin.Directory().SourceForLabel("live", nil); got != "srcC" {
		t.Fatalf("after leave+eviction, preferred source = %q, want srcC", got)
	}
	_ = srcB // kept alive for its deferred close
}

// TestTCPGossipJoinAddressDissemination pins the join re-flood: under
// SWIM gossip over TCP, every member needs a dialable address for every
// other member — probes and acks are point-to-point, not flooded — but a
// joiner only handshakes with one of them. Before the re-flood, a member
// that joined earlier never learned a later joiner's address; its probes
// (or acks to the joiner's probes) were undeliverable, and after one
// suspicion window a live node was evicted fleet-wide by a gossiped death
// notice. The test stands up origin + two sources that each know only the
// origin, waits through several suspicion windows, and requires zero
// evictions and a fully-meshed address table.
func TestTCPGossipJoinAddressDissemination(t *testing.T) {
	world := staticWorld{"live": true}
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"live": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute}}

	timers := newEndTimers(t)
	mk := func(id string, d *object.Descriptor) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetRetryPolicy(1, 0)
		node, err := athena.New(athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: timers, Scheme: athena.SchemeLVF,
			Directory: athena.NewDirectory(nil),
			Meta:      meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20,
			HeartbeatInterval: 100 * time.Millisecond,
			GossipFanout:      2,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	descFor := func(id string) *object.Descriptor {
		return &object.Descriptor{
			Name:     names.MustParse("/tcp/gossip/" + id),
			Size:     100_000,
			Validity: time.Minute,
			Labels:   []string{"live"},
			Source:   id,
			ProbTrue: 0.8,
		}
	}

	origin, trOrigin := mk("origin", nil)
	defer trOrigin.Close()
	camA, trA := mk("camA", descFor("camA"))
	defer trA.Close()
	camB, trB := mk("camB", descFor("camB"))
	defer trB.Close()

	// Staggered joins through the origin only: camA is already a member
	// when camB arrives, so camA can learn camB's address only from the
	// re-flooded join.
	trA.AddPeer("origin", trOrigin.Addr())
	if err := camA.Join("origin"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !origin.Directory().Has("camA") {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for camA to join")
		}
		time.Sleep(20 * time.Millisecond)
	}
	trB.AddPeer("origin", trOrigin.Addr())
	if err := camB.Join("origin"); err != nil {
		t.Fatal(err)
	}

	// More than three suspicion windows: a suspect is evicted after
	// suspectPeriods (3 × heartbeatMiss = 9) silent 100ms intervals, 900ms,
	// so an undeliverable probe path would have evicted well within 3s.
	time.Sleep(3 * time.Second)

	for _, n := range []*athena.Node{origin, camA, camB} {
		if ev := n.Stats().Evictions; ev != 0 {
			t.Errorf("%s evicted %d live members", n.ID(), ev)
		}
		for _, member := range []string{"camA", "camB"} {
			if !n.Directory().Has(member) {
				t.Errorf("%s lost %s from its directory", n.ID(), member)
			}
		}
	}
	if addr := trA.Peers()["camB"]; addr != trB.Addr() {
		t.Errorf("camA's address for camB = %q, want %q", addr, trB.Addr())
	}
	if addr := trB.Peers()["camA"]; addr != trA.Addr() {
		t.Errorf("camB's address for camA = %q, want %q", addr, trA.Addr())
	}
}
