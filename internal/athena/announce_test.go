package athena

import (
	"fmt"
	"reflect"
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
	"athena/internal/workload"
)

// frameTap records what the network delivers: every QueryAnnounce arrival
// in delivery order, and a count of delivered frames by payload type.
type frameTap struct {
	announces []announceArrival
	frames    map[string]int
}

type announceArrival struct {
	at   string
	hops int
}

// tapNode puts the tap between the network and a node's handler. Every
// tapped network here runs on one lane, so the tap needs no lock.
func (tap *frameTap) tapNode(t testing.TB, net *netsim.Network, id string, node *Node) {
	t.Helper()
	if tap.frames == nil {
		tap.frames = make(map[string]int)
	}
	err := net.SetHandler(id, func(from string, size int64, payload any) {
		tap.frames[fmt.Sprintf("%T", payload)]++
		if a, ok := payload.(*QueryAnnounce); ok {
			tap.announces = append(tap.announces, announceArrival{id, a.Hops})
		}
		node.handleMessage(from, size, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// meshRig is a hand-built network over the given links in which every node
// is the source of one label named after it (node "c" sources "lc", true
// in the world), prefetch is on unless opts say otherwise, and every
// delivery goes through a tap.
type meshRig struct {
	sched *simclock.Scheduler
	net   *netsim.Network
	nodes map[string]*Node
	tap   frameTap
}

func buildMesh(t testing.TB, scheme Scheme, links [][2]string, opts func(*Config)) *meshRig {
	t.Helper()
	r := &meshRig{sched: simclock.New(tBase), nodes: make(map[string]*Node)}
	r.net = netsim.New(r.sched)
	var ids []string
	for _, l := range links {
		for _, id := range l {
			if _, seen := r.nodes[id]; !seen {
				r.nodes[id] = nil
				ids = append(ids, id)
				r.net.AddNode(id, nil)
			}
		}
		if err := r.net.AddLink(l[0], l[1], netsim.LinkConfig{Bandwidth: 125_000, Latency: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	world, meta := staticWorld{}, boolexpr.MetaTable{}
	descs := make([]object.Descriptor, len(ids))
	for i, id := range ids {
		descs[i] = object.Descriptor{
			Name: names.MustParse("/cam/" + id), Size: 50_000, Source: id,
			Labels: []string{"l" + id}, Validity: time.Minute, ProbTrue: 0.8,
		}
		world["l"+id] = true
		meta["l"+id] = boolexpr.Meta{Cost: 50_000, ProbTrue: 0.8, Validity: time.Minute}
	}
	dir := NewDirectory(descs)
	auth := trust.NewAuthority()
	for i, id := range ids {
		cfg := Config{
			ID: id, Transport: transport.NewSim(r.net, id), Router: r.net,
			Timers: LaneTimers{Lane: r.sched.Lane}, Scheme: scheme, Directory: dir,
			Meta: meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte("k-"+id)), Policy: trust.TrustAll(),
			Descriptor: &descs[i], CacheBytes: 8 << 20,
		}
		if opts != nil {
			opts(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[id] = node
		r.tap.tapNode(t, r.net, id, node)
	}
	return r
}

func (r *meshRig) run(t testing.TB, until time.Duration) {
	t.Helper()
	if err := r.sched.RunUntil(tBase.Add(until), 0); err != nil {
		t.Fatal(err)
	}
}

var line5 = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}}

func mustDNF(expr string) boolexpr.DNF { return boolexpr.ToDNF(boolexpr.MustParse(expr)) }

// TestAnnounceStopsAtPrefetchRadius: on a line a–b–c–d–e an announce from a
// reaches b and c, the two nodes that may prefetch for it, and c — the
// last of them — sends nothing on.
func TestAnnounceStopsAtPrefetchRadius(t *testing.T) {
	r := buildMesh(t, SchemeLVF, line5, nil)
	if _, err := r.nodes["a"].QueryInit(mustDNF("lb & lc & ld & le"), time.Minute); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2*time.Minute)

	want := []announceArrival{{"b", 0}, {"c", 1}}
	if !reflect.DeepEqual(r.tap.announces, want) {
		t.Errorf("announce deliveries = %v, want %v", r.tap.announces, want)
	}
	for id, want := range map[string]struct{ sent, pushes, seen int }{
		"a": {1, 0, 1}, "b": {1, 1, 1}, "c": {0, 1, 1}, "d": {0, 0, 0}, "e": {0, 0, 0},
	} {
		n := r.nodes[id]
		if st := n.Stats(); st.AnnouncesSent != want.sent || st.PrefetchPushes != want.pushes || len(n.seenAnnounce) != want.seen {
			t.Errorf("%s: %d announces sent, %d pushes, %d announces seen; want %d, %d, %d",
				id, st.AnnouncesSent, st.PrefetchPushes, len(n.seenAnnounce), want.sent, want.pushes, want.seen)
		}
	}
	if res := r.nodes["a"].Results(); len(res) != 1 || res[0].Status != core.ResolvedTrue {
		t.Errorf("results = %+v", res)
	}
}

// TestRelayIgnoresClaimedTTL hands a relay announces whose sender claims a
// TTL of 2^40: TTL and Hops are signed 64-bit on the wire, and a peer on an
// older build or a hostile one may send anything. Only a copy a receiver
// could still act on is forwarded, and one from outside the radius leaves
// no trace at all.
func TestRelayIgnoresClaimedTTL(t *testing.T) {
	r := buildMesh(t, SchemeLVF, line5, nil)
	b := r.nodes["b"]
	for i, c := range []struct {
		hops            int
		forwarded, used bool
	}{
		{0, true, true},
		{1, false, true},
		{5, false, false},
		{prefetchHops, false, false},
		{-1, false, false},
		{-1 << 40, false, false},
	} {
		a := &QueryAnnounce{
			QueryID: fmt.Sprintf("a/x%d", i), Origin: "a", Expr: "lb",
			Deadline: tBase.Add(time.Minute), TTL: 1 << 40, Hops: c.hops,
		}
		before, queued := b.Stats().AnnouncesSent, len(b.prefetch.queue)
		b.handleMessage("a", a.WireSize(), a)
		if got := b.Stats().AnnouncesSent - before; (got == 1) != c.forwarded || got > 1 {
			t.Errorf("Hops %d: forwarded %d copies, want forwarded = %v", c.hops, got, c.forwarded)
		}
		pushQueued := len(b.prefetch.queue) == queued+1
		if _, seen := b.seenAnnounce[a.QueryID]; pushQueued != c.used || seen != c.used {
			t.Errorf("Hops %d: queued a push = %v, marked seen = %v; want both %v",
				c.hops, pushQueued, seen, c.used)
		}
	}
	// The one forwarded copy still claims TTL 2^40 - 1; it is c's to use
	// and goes no further.
	r.run(t, time.Minute)
	if got := r.nodes["c"].Stats().AnnouncesSent; got != 0 {
		t.Errorf("c forwarded %d copies of an announce at the edge of the radius", got)
	}
	if got := len(r.nodes["d"].seenAnnounce); got != 0 {
		t.Errorf("d saw %d announces", got)
	}
}

// TestPrefetchEligibilityIgnoresQueueing pins a race the four-hop flood
// had: s is two hops from the origin through r and three through x and y.
// With r's link to s busy serializing a 1 MB object, the first copy to
// reach s used to be the one that took the long way round, arriving with
// Hops 2 — not eligible, yet it marked the query seen, and the eligible
// copy was discarded as a duplicate when it landed eight seconds later.
// Whether a source prefetched depended on what else was queued.
func TestPrefetchEligibilityIgnoresQueueing(t *testing.T) {
	r := buildMesh(t, SchemeLVF, [][2]string{{"o", "r"}, {"r", "s"}, {"o", "x"}, {"x", "y"}, {"y", "s"}}, nil)
	if err := r.net.Send("r", "s", 1_000_000, "bulk"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.nodes["o"].QueryInit(mustDNF("ls"), time.Minute); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2*time.Minute)
	if got := r.nodes["s"].Stats().PrefetchPushes; got != 1 {
		t.Errorf("the two-hop source pushed %d times, want 1", got)
	}
	for _, a := range r.tap.announces {
		if a.at == "s" && a.hops != 1 {
			t.Errorf("s was delivered a copy with Hops %d", a.hops)
		}
	}
}

// TestPrewarmFloodsFromPrefetchOffNode: DisablePrefetch stops a node
// soliciting pushes for its queries as a matter of course; Prewarm is the
// caller asking for exactly that, and still floods.
func TestPrewarmFloodsFromPrefetchOffNode(t *testing.T) {
	r := buildMesh(t, SchemeLVF, line5, func(cfg *Config) { cfg.DisablePrefetch = cfg.ID == "a" })
	a := r.nodes["a"]
	if _, err := a.QueryInit(mustDNF("lb"), time.Minute); err != nil {
		t.Fatal(err)
	}
	r.run(t, 30*time.Second)
	if st := a.Stats(); st.AnnouncesSent != 0 || len(a.seenAnnounce) != 0 || len(r.tap.announces) != 0 {
		t.Fatalf("a prefetch-off node announced its query: %d sent, %d delivered", st.AnnouncesSent, len(r.tap.announces))
	}
	if err := a.Prewarm(mustDNF("lc")); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Minute)
	if got := a.Stats().AnnouncesSent; got != 1 {
		t.Errorf("Prewarm sent %d announces, want 1", got)
	}
	if got := r.nodes["c"].Stats().PrefetchPushes; got != 1 {
		t.Errorf("c pushed %d times for the prewarmed expression, want 1", got)
	}
}

// tapCluster taps every node of a shared-lane cluster.
func tapCluster(t testing.TB, c *Cluster) *frameTap {
	t.Helper()
	tap := new(frameTap)
	for id, node := range c.Nodes {
		tap.tapNode(t, c.Network, id, node)
	}
	return tap
}

// TestNoAnnounceDeliveredBeyondRadius is the property form, on the paper's
// workload with prefetch on: whatever the topology and queueing, no node
// is ever handed an announce it may not act on, and sources do push.
func TestNoAnnounceDeliveredBeyondRadius(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= seeds; seed++ {
		wcfg := workload.DefaultConfig()
		wcfg.Seed = seed
		s, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(s, ClusterConfig{Scheme: SchemeLVF, EnablePrefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		tap := tapCluster(t, c)
		out, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tap.announces {
			if a.hops < 0 || a.hops >= prefetchHops {
				t.Fatalf("seed %d: %s was delivered an announce with Hops %d", seed, a.at, a.hops)
			}
		}
		if out.Node.PrefetchPushes == 0 || out.Node.AnnouncesSent == 0 || out.Node.AnnounceDups >= out.Node.AnnouncesSent {
			t.Errorf("seed %d: %d pushes, %d announces sent, %d duplicates", seed,
				out.Node.PrefetchPushes, out.Node.AnnouncesSent, out.Node.AnnounceDups)
		}
	}
}

// TestPrefetchOffFleetSendsNoAnnounce: with prefetch off on every node and
// no membership layer, the only frames a fleet sends are the ones a
// decision's evidence is owed — requests, objects and label shares.
func TestPrefetchOffFleetSendsNoAnnounce(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.GridRows, wcfg.GridCols = 5, 5
	wcfg.Nodes = 14
	wcfg.QueriesPerNode = 2
	wcfg.Seed = 7
	s, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(s, ClusterConfig{Scheme: SchemeLVFL})
	if err != nil {
		t.Fatal(err)
	}
	tap := tapCluster(t, c)
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Let what the run's horizon left on the links land, so that sent and
	// delivered are the same frames.
	if err := c.Network.RunUntil(c.Network.Now().Add(time.Hour), maxEvents); err != nil {
		t.Fatal(err)
	}
	if out.Node.AnnouncesSent != 0 || out.Node.AnnounceDups != 0 {
		t.Errorf("%d announces sent, %d duplicates; want none", out.Node.AnnouncesSent, out.Node.AnnounceDups)
	}
	requests, data, shares := tap.frames["*athena.ObjectRequest"], tap.frames["*athena.ObjectData"], tap.frames["*athena.LabelShare"]
	if requests == 0 || data == 0 || shares == 0 {
		t.Fatalf("delivered frames by type: %v", tap.frames)
	}
	if sent := c.Network.Stats().MessagesSent; sent != int64(requests+data+shares) {
		t.Errorf("MessagesSent = %d, want %d requests + %d objects + %d shares (delivered: %v)",
			sent, requests, data, shares, tap.frames)
	}
}

// TestFinishedQueriesLeaveSimulatedFleet is the simulator half of the
// soak: 500 decisions across a fleet, some resolved by the network, some
// locally, some expired, and every node ends holding no query.
func TestFinishedQueriesLeaveSimulatedFleet(t *testing.T) {
	r := buildMesh(t, SchemeLVFL, line5, nil)
	const perOrigin = 125
	var stops []func()
	for _, q := range []struct{ origin, expr string }{
		{"a", "le & lc"},         // four hops out, refetched as it expires
		{"b", "lb | ld"},         // own sensor
		{"e", "la & !lb"},        // resolves false
		{"c", "(la & le) | lzz"}, // lzz has no source
	} {
		stop, err := r.nodes[q.origin].QueryEvery(mustDNF(q.expr), 3*time.Second, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		stops = append(stops, stop)
	}
	r.run(t, perOrigin*4*time.Second-time.Second)
	for _, stop := range stops {
		stop()
	}
	r.run(t, perOrigin*4*time.Second+2*time.Minute)
	decisions, expired := 0, 0
	for id, n := range r.nodes {
		if len(n.queries) != 0 || len(n.live) != 0 || len(n.fetchQ) != 0 {
			t.Errorf("%s ends with %d queries, %d live, %d queued requests", id, len(n.queries), len(n.live), len(n.fetchQ))
		}
		if got := n.DebugQueries(); got != "" {
			t.Errorf("%s still lists queries:\n%s", id, got)
		}
		st := n.Stats()
		decisions += st.QueriesIssued
		expired += st.Expired
		if len(n.Results()) != st.QueriesIssued {
			t.Errorf("%s recorded %d results for %d decisions", id, len(n.Results()), st.QueriesIssued)
		}
	}
	if decisions != 4*perOrigin || expired == 0 || expired == decisions {
		t.Errorf("%d decisions (%d expired), want %d with some expired and some not", decisions, expired, 4*perOrigin)
	}
}
