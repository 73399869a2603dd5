package athena

import (
	"fmt"
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

// frameTap counts the frames the network delivers, by payload type.
type frameTap struct {
	frames map[string]int
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
		node.handleMessage(from, size, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// meshRig is a hand-built network over the given links in which every node
// is the source of one label named after it (node "c" sources "lc", true
// in the world), and every delivery goes through a tap.
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

// tapCluster taps every node of a shared-lane cluster.
func tapCluster(t testing.TB, c *Cluster) *frameTap {
	t.Helper()
	tap := new(frameTap)
	for id, node := range c.Nodes {
		tap.tapNode(t, c.Network, id, node)
	}
	return tap
}

// TestFleetSendsOnlyEvidenceFrames: with no membership layer, the only
// frames a fleet sends are the ones a decision's evidence is owed —
// requests, objects and label shares.
func TestFleetSendsOnlyEvidenceFrames(t *testing.T) {
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
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Let what the run's horizon left on the links land, so that sent and
	// delivered are the same frames.
	if err := c.Network.RunUntil(c.Network.Now().Add(time.Hour), maxEvents); err != nil {
		t.Fatal(err)
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

// TestDataFollowsAnInterestOrStops: on the line a–b–c, a asks for c's
// object, and b's waiter lapses while the request is upstream. The object
// that reaches b is cached there and goes no further: no data frame
// reaches a until a's recovery timer asks again, and b answers that
// request from its store, which resolves the decision.
func TestDataFollowsAnInterestOrStops(t *testing.T) {
	r := buildMesh(t, SchemeLVF, [][2]string{{"a", "b"}, {"b", "c"}}, nil)
	var dataAt []time.Duration // when each data frame reached a
	a := r.nodes["a"]
	if err := r.net.SetHandler("a", func(from string, size int64, payload any) {
		if _, ok := payload.(*ObjectData); ok {
			dataAt = append(dataAt, r.sched.Now().Sub(tBase))
		}
		a.handleMessage(from, size, payload)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.QueryInit(mustDNF("lc"), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 10*time.Millisecond) // the request has passed b
	b, obj := r.nodes["b"], "/cam/c"
	b.mu.Lock()
	req := b.interest.reqs[obj]
	if len(req.waiters) != 1 {
		b.mu.Unlock()
		t.Fatalf("b holds %d waiters for %s, want 1", len(req.waiters), obj)
	}
	req.waiters[0].expires = b.now() // the waiter lapses
	b.mu.Unlock()

	r.run(t, 5*time.Second) // the object reached b; a's recovery has not fired
	b.mu.Lock()
	_, cached := b.store.Get(names.MustParse(obj), b.now())
	b.mu.Unlock()
	if !cached {
		t.Errorf("b did not cache %s", obj)
	}
	if len(dataAt) != 0 {
		t.Fatalf("data reached a at %v with no waiter at b to ask for it", dataAt)
	}
	r.run(t, 20*time.Second)
	res := a.Results()
	if len(res) != 1 || res[0].Status != core.ResolvedTrue {
		t.Fatalf("results %+v, want the decision resolved true", res)
	}
	if st := a.Stats(); st.RequestTimeouts != 1 || len(dataAt) != 1 {
		t.Errorf("a's recovery fired %d times and %d data frames reached it (at %v), want 1 and 1", st.RequestTimeouts, len(dataAt), dataAt)
	}
}
