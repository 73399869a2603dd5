package athena

import (
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
)

// staticWorld is a fixed ground truth for integration tests.
type staticWorld map[string]bool

func (w staticWorld) LabelValue(label string, _ time.Time) bool { return w[label] }

// rig is a hand-built line network nodeA - nodeB - nodeC with a sensor at
// each end and the middle node as pure forwarder.
type rig struct {
	sched *simclock.Scheduler
	net   *netsim.Network
	nodes map[string]*Node
}

func buildRig(t testing.TB, scheme Scheme, world staticWorld, opts func(*Config)) *rig {
	t.Helper()
	sched := simclock.New(tBase)
	net := netsim.New(sched)
	for _, id := range []string{"nodeA", "nodeB", "nodeC"} {
		net.AddNode(id, nil)
	}
	linkCfg := netsim.LinkConfig{Bandwidth: 125_000, Latency: time.Millisecond}
	if err := net.AddLink("nodeA", "nodeB", linkCfg); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("nodeB", "nodeC", linkCfg); err != nil {
		t.Fatal(err)
	}

	descs := map[string]*object.Descriptor{
		"nodeA": {
			Name: names.MustParse("/cam/a"), Size: 100_000, Source: "nodeA",
			Labels: []string{"la1", "la2"}, Validity: time.Minute, ProbTrue: 0.8,
		},
		"nodeC": {
			Name: names.MustParse("/cam/c"), Size: 200_000, Source: "nodeC",
			Labels: []string{"lc1", "lc2"}, Validity: time.Minute, ProbTrue: 0.8,
		},
	}
	var all []object.Descriptor
	for _, d := range descs {
		all = append(all, *d)
	}
	dir := NewDirectory(all)
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{
		"la1": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
		"la2": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
		"lc1": {Cost: 200_000, ProbTrue: 0.8, Validity: time.Minute},
		"lc2": {Cost: 200_000, ProbTrue: 0.8, Validity: time.Minute},
	}

	r := &rig{sched: sched, net: net, nodes: make(map[string]*Node)}
	for _, id := range []string{"nodeA", "nodeB", "nodeC"} {
		cfg := Config{
			ID:         id,
			Transport:  transport.NewSim(net, id),
			Router:     net,
			Timers:     LaneTimers{Lane: sched.Lane},
			Scheme:     scheme,
			Directory:  dir,
			Meta:       meta,
			World:      world,
			Authority:  auth,
			Signer:     auth.Register(id, []byte("k-"+id)),
			Policy:     trust.TrustAll(),
			Descriptor: descs[id],
			CacheBytes: 8 << 20,
		}
		if opts != nil {
			opts(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[id] = node
	}
	return r
}

func (r *rig) run(t testing.TB, until time.Duration) {
	t.Helper()
	if err := r.sched.RunUntil(tBase.Add(until), 0); err != nil {
		t.Fatal(err)
	}
}

func TestNodeResolvesRemoteEvidence(t *testing.T) {
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	id, err := r.nodes["nodeA"].QueryInit(expr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Minute)
	results := r.nodes["nodeA"].Results()
	if len(results) != 1 || results[0].QueryID != id {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Status != core.ResolvedTrue {
		t.Errorf("status = %v, want resolved-true", results[0].Status)
	}
	// The 200 KB object must have crossed both hops exactly once.
	bytes := r.net.Stats().BytesSent
	if bytes < 400_000 || bytes > 500_000 {
		t.Errorf("network bytes = %d, want ~2 x 200KB + control", bytes)
	}
}

func TestNodeResolvesFalseWithShortCircuit(t *testing.T) {
	world := staticWorld{"lc1": false, "lc2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Minute)
	results := r.nodes["nodeA"].Results()
	if len(results) != 1 || results[0].Status != core.ResolvedFalse {
		t.Fatalf("results = %+v", results)
	}
}

func TestNodeShortCircuitsAcrossTerms(t *testing.T) {
	// First term (cheap, local) is viable: the remote term must never be
	// fetched.
	world := staticWorld{"la1": true, "la2": true, "lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	expr := boolexpr.ToDNF(boolexpr.MustParse("(la1 & la2) | (lc1 & lc2)"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Minute)
	results := r.nodes["nodeA"].Results()
	if len(results) != 1 || results[0].Status != core.ResolvedTrue {
		t.Fatalf("results = %+v", results)
	}
	// la* evidence is nodeA's own sensor: no object should cross the
	// network.
	if bytes := r.net.Stats().BytesSent; bytes > 10_000 {
		t.Errorf("network bytes = %d, want control traffic only", bytes)
	}
}

func TestNodeDeadlineExpiry(t *testing.T) {
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	// 200 KB over 2 hops at 125 KB/s needs ~3.2s; 1s deadline must fail.
	if _, err := r.nodes["nodeA"].QueryInit(expr, time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Minute)
	results := r.nodes["nodeA"].Results()
	if len(results) != 1 || results[0].Status != core.Expired {
		t.Fatalf("results = %+v, want expired", results)
	}
}

func TestForwarderCacheServesSecondQuery(t *testing.T) {
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 20*time.Second)
	before := r.net.Stats().BytesSent

	// nodeB asks next: its own content store (on-path cache) has the
	// object, so no new transfer from nodeC is needed.
	if _, err := r.nodes["nodeB"].QueryInit(expr, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 40*time.Second)
	results := r.nodes["nodeB"].Results()
	if len(results) != 1 || results[0].Status != core.ResolvedTrue {
		t.Fatalf("nodeB results = %+v", results)
	}
	delta := r.net.Stats().BytesSent - before
	if delta > 50_000 {
		t.Errorf("second query moved %d bytes; want cache answer (< 50KB)", delta)
	}
	if r.nodes["nodeB"].Stats().CacheAnswers == 0 {
		t.Error("no cache answer recorded")
	}
}

func TestLabelSharingAnswersWithRecords(t *testing.T) {
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVFL, world, nil)
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 20*time.Second)
	before := r.net.Stats().BytesSent

	// nodeB's query is answered by cached label records: orders of
	// magnitude less traffic than the 200 KB object.
	if _, err := r.nodes["nodeB"].QueryInit(expr, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 40*time.Second)
	results := r.nodes["nodeB"].Results()
	if len(results) != 1 || results[0].Status != core.ResolvedTrue {
		t.Fatalf("nodeB results = %+v", results)
	}
	delta := r.net.Stats().BytesSent - before
	if delta > 10_000 {
		t.Errorf("label-share answer moved %d bytes, want < 10KB", delta)
	}
}

func TestTrustNonePolicyForcesObjectFetch(t *testing.T) {
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVFL, world, func(cfg *Config) {
		cfg.Policy = trust.TrustNone()
	})
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 20*time.Second)
	results := r.nodes["nodeA"].Results()
	// Like Alice refusing Bob's judgment: the raw object must still
	// resolve the query (nodeA annotates it itself).
	if len(results) != 1 || results[0].Status != core.ResolvedTrue {
		t.Fatalf("results = %+v", results)
	}
	if r.net.Stats().BytesSent < 400_000 {
		t.Error("object transfer expected under TrustNone")
	}
}

func TestRefetchAfterExpiry(t *testing.T) {
	// Dedicated two-node rig with a short-validity sensor.
	sched := simclock.New(tBase)
	net := netsim.New(sched)
	net.AddNode("src", nil)
	net.AddNode("origin", nil)
	if err := net.AddLink("src", "origin", netsim.LinkConfig{Bandwidth: 125_000}); err != nil {
		t.Fatal(err)
	}
	desc := &object.Descriptor{
		Name: names.MustParse("/cam/s"), Size: 400_000, Source: "src",
		// 400 KB at 125 KB/s = 3.2s per hop; validity 4s: fresh on
		// arrival with ~0.8s to spare, but the decision needs a second
		// label that never resolves, so the evidence expires and gets
		// refetched.
		Labels: []string{"ls1", "never"}, Validity: 4 * time.Second, ProbTrue: 0.8,
	}
	dir := NewDirectory([]object.Descriptor{*desc})
	auth := trust.NewAuthority()
	mkNode := func(id string, d *object.Descriptor) *Node {
		node, err := New(Config{
			ID: id, Transport: transport.NewSim(net, id), Router: net,
			Timers: LaneTimers{Lane: sched.Lane}, Scheme: SchemeLVF, Directory: dir,
			Meta:  boolexpr.MetaTable{"ls1": {Cost: 400_000, ProbTrue: 0.8, Validity: 4 * time.Second}},
			World: staticWorld{"ls1": true}, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	mkNode("src", desc)
	origin := mkNode("origin", nil)
	// Query needs ls1 AND an uncoverable label: it can never resolve, so
	// ls1 keeps expiring and being refetched until the deadline.
	expr := boolexpr.ToDNF(boolexpr.MustParse("ls1 & uncoverable"))
	if _, err := origin.QueryInit(expr, 25*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(tBase.Add(40*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	results := origin.Results()
	if len(results) != 1 || results[0].Status != core.Expired {
		t.Fatalf("results = %+v, want expired", results)
	}
	if origin.Stats().Refetches == 0 {
		t.Error("no refetches despite expiring evidence")
	}
}

func TestQueryInitValidation(t *testing.T) {
	world := staticWorld{}
	r := buildRig(t, SchemeLVF, world, nil)
	if _, err := r.nodes["nodeA"].QueryInit(boolexpr.DNF{}, time.Second); err == nil {
		t.Error("empty expression accepted")
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestOnQueryDoneCallback(t *testing.T) {
	world := staticWorld{"la1": true, "la2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	var got []QueryResult
	r.nodes["nodeA"].OnQueryDone(func(res QueryResult) { got = append(got, res) })
	expr := boolexpr.ToDNF(boolexpr.MustParse("la1 & la2"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 20*time.Second)
	if len(got) != 1 || got[0].Status != core.ResolvedTrue {
		t.Fatalf("callback results = %+v", got)
	}
}

func TestBatchSchemeResolves(t *testing.T) {
	world := staticWorld{"la1": true, "lc1": false, "lc2": true}
	for _, scheme := range []Scheme{SchemeCMP, SchemeSLT, SchemeLCF} {
		r := buildRig(t, scheme, world, nil)
		expr := boolexpr.ToDNF(boolexpr.MustParse("(lc1 & lc2) | la1"))
		if _, err := r.nodes["nodeA"].QueryInit(expr, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		r.run(t, time.Minute)
		results := r.nodes["nodeA"].Results()
		if len(results) != 1 || results[0].Status != core.ResolvedTrue {
			t.Fatalf("%v results = %+v", scheme, results)
		}
	}
}

func TestCriticalNamespacePriority(t *testing.T) {
	// Two sensors behind one congested link: bulk traffic queues first,
	// but the critical-namespace object must be serialized ahead of the
	// bulk backlog and resolve its query sooner.
	sched := simclock.New(tBase)
	net := netsim.New(sched)
	for _, id := range []string{"origin", "relay", "srcBulk", "srcCrit"} {
		net.AddNode(id, nil)
	}
	link := netsim.LinkConfig{Bandwidth: 125_000, Latency: time.Millisecond}
	for _, l := range [][2]string{{"origin", "relay"}, {"relay", "srcBulk"}, {"relay", "srcCrit"}} {
		if err := net.AddLink(l[0], l[1], link); err != nil {
			t.Fatal(err)
		}
	}
	world := staticWorld{"bulk1": true, "crit1": true}
	descs := []object.Descriptor{
		{Name: names.MustParse("/bulk/cam"), Size: 2_000_000, Source: "srcBulk",
			Labels: []string{"bulk1"}, Validity: 5 * time.Minute, ProbTrue: 0.8},
		{Name: names.MustParse("/critical/alarm"), Size: 100_000, Source: "srcCrit",
			Labels: []string{"crit1"}, Validity: 5 * time.Minute, ProbTrue: 0.8},
	}
	dir := NewDirectory(descs)
	auth := trust.NewAuthority()
	critical := names.MustParse("/critical")
	mk := func(id string, d *object.Descriptor) *Node {
		node, err := New(Config{
			ID: id, Transport: transport.NewSim(net, id), Router: net,
			Timers: LaneTimers{Lane: sched.Lane}, Scheme: SchemeLVF, Directory: dir,
			Meta: boolexpr.MetaTable{
				"bulk1": {Cost: 2_000_000, ProbTrue: 0.8, Validity: 5 * time.Minute},
				"crit1": {Cost: 100_000, ProbTrue: 0.8, Validity: 5 * time.Minute},
			},
			World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 16 << 20,
			CriticalPrefix: critical,
		})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	origin := mk("origin", nil)
	mk("relay", nil)
	mk("srcBulk", &descs[0])
	mk("srcCrit", &descs[1])

	// Bulk query first so the 2 MB transfer occupies the relay->origin
	// link (16s serialization); then the critical query arrives.
	if _, err := origin.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("bulk1")), 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(tBase.Add(2*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("crit1")), 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(tBase.Add(2*time.Minute), 0); err != nil {
		t.Fatal(err)
	}

	var bulkDone, critDone time.Time
	for _, r := range origin.Results() {
		if r.Status != core.ResolvedTrue {
			t.Fatalf("query %s = %v", r.QueryID, r.Status)
		}
		switch r.QueryID {
		case "origin/q1":
			bulkDone = r.Finished
		case "origin/q2":
			critDone = r.Finished
		}
	}
	// The critical object (requested while the bulk transfer was in
	// flight) must finish well before the bulk query despite arriving
	// later.
	if !critDone.Before(bulkDone) {
		t.Errorf("critical finished %v, bulk %v: no preferential treatment", critDone, bulkDone)
	}
}

func TestQueryEvery(t *testing.T) {
	world := staticWorld{"la1": true, "la2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	expr := boolexpr.ToDNF(boolexpr.MustParse("la1 & la2"))
	stop, err := r.nodes["nodeA"].QueryEvery(expr, 5*time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 35s window: firings at 0, 10, 20, 30 -> 4 queries.
	r.run(t, 35*time.Second)
	stop()
	r.run(t, 60*time.Second)

	results := r.nodes["nodeA"].Results()
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4 periodic firings", len(results))
	}
	for _, res := range results {
		if res.Status != core.ResolvedTrue {
			t.Errorf("periodic query %s = %v", res.QueryID, res.Status)
		}
	}
	// After stop, no further firings.
	if got := len(r.nodes["nodeA"].Results()); got != 4 {
		t.Errorf("results after stop = %d", got)
	}

	if _, err := r.nodes["nodeA"].QueryEvery(expr, time.Second, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := r.nodes["nodeA"].QueryEvery(boolexpr.DNF{}, time.Second, time.Second); err == nil {
		t.Error("empty expression accepted")
	}
}

func TestFetchQueueOrdersByQueryUrgency(t *testing.T) {
	// Two queries at the same node: the later-issued one has a much
	// tighter deadline, so its request must be dispatched first when both
	// sit in the fetch queue.
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVF, world, nil)

	relaxedExpr := boolexpr.ToDNF(boolexpr.MustParse("lc1"))
	urgentExpr := boolexpr.ToDNF(boolexpr.MustParse("lc2"))

	// Issue both before the event loop runs, so both requests are queued
	// together in nodeA's fetch queue.
	if _, err := r.nodes["nodeA"].QueryInit(relaxedExpr, 50*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := r.nodes["nodeA"].QueryInit(urgentExpr, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Minute)

	results := r.nodes["nodeA"].Results()
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	byID := make(map[string]QueryResult, 2)
	for _, res := range results {
		byID[res.QueryID] = res
		if res.Status != core.ResolvedTrue {
			t.Fatalf("%s = %v", res.QueryID, res.Status)
		}
	}
	// q2 (urgent) must finish before q1 (relaxed) even though both need
	// the same 200 KB object from nodeC: the urgent request went first
	// and the relaxed query was then served opportunistically from the
	// same delivery, i.e. not later than the urgent one plus epsilon.
	if byID["nodeA/q2"].Finished.After(byID["nodeA/q1"].Finished) {
		t.Errorf("urgent query finished at %v, after relaxed at %v",
			byID["nodeA/q2"].Finished, byID["nodeA/q1"].Finished)
	}
}

// A snapshot's collect reads the node's counts without allocating: the
// metric names are built once, not per call, and Stats is not boxed. It
// emits every tagged Stats field, then the derived and cache counts.
func TestCollectDoesNotAllocate(t *testing.T) {
	n, _ := newDispatchNode(t, func(*Config) {})
	names := map[string]bool{}
	n.collect(func(name string, _ int64) { names[name] = true })
	for _, want := range []string{"retry.retransmits", "membership.evictions", "batch.frames_saved",
		"cache.hits", "labels.evictions", "interest.expiries"} {
		if !names[want] {
			t.Errorf("collect emits no %s (emitted %d names)", want, len(names))
		}
	}
	if len(names) != len(statMetrics)+12 {
		t.Errorf("collect emits %d names, want %d tagged fields and 12 others", len(names), len(statMetrics))
	}
	emit := func(string, int64) {}
	if allocs := testing.AllocsPerRun(100, func() { n.collect(emit) }); allocs != 0 {
		t.Errorf("collect allocates %.0f times a call, want 0", allocs)
	}
}
