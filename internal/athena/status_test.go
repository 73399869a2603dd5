package athena

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/cache"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/workload"
)

// buildStatusRig is the membership line srcA - mid - srcC with every node
// instrumented into its own registry, so the status endpoint has live data
// to serve.
func buildStatusRig(t *testing.T, world staticWorld) (*memberRig, map[string]*metrics.Registry) {
	t.Helper()
	sched := simclock.New(tBase)
	net := netsim.New(sched)
	for _, id := range []string{"srcA", "mid", "srcC"} {
		net.AddNode(id, nil)
	}
	linkCfg := netsim.LinkConfig{Bandwidth: 125_000, Latency: time.Millisecond}
	if err := net.AddLink("srcA", "mid", linkCfg); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("mid", "srcC", linkCfg); err != nil {
		t.Fatal(err)
	}

	descs := map[string]*object.Descriptor{
		"srcA": {
			Name: names.MustParse("/cam/a"), Size: 100_000, Source: "srcA",
			Labels: []string{"shared"}, Validity: time.Minute, ProbTrue: 0.8,
		},
		"srcC": {
			Name: names.MustParse("/cam/c"), Size: 200_000, Source: "srcC",
			Labels: []string{"shared"}, Validity: time.Minute, ProbTrue: 0.8,
		},
	}
	all := []object.Descriptor{*descs["srcA"], *descs["srcC"]}
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{
		"shared": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
	}

	r := &memberRig{sched: sched, net: net, nodes: make(map[string]*Node)}
	regs := make(map[string]*metrics.Registry)
	for _, id := range []string{"srcA", "mid", "srcC"} {
		regs[id] = metrics.NewRegistry()
		node, err := New(Config{
			ID:                id,
			Transport:         transport.NewSim(net, id),
			Router:            net,
			Timers:            LaneTimers{Lane: sched.Lane},
			Scheme:            SchemeLVF,
			Directory:         NewDirectory(all),
			Meta:              meta,
			World:             world,
			Authority:         auth,
			Signer:            auth.Register(id, []byte("k-"+id)),
			Policy:            trust.TrustAll(),
			Descriptor:        descs[id],
			CacheBytes:        8 << 20,
			HeartbeatInterval: time.Second,
			Metrics:           regs[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[id] = node
	}
	return r, regs
}

// The status endpoint must serve a JSON snapshot whose directory version,
// peer liveness map and eviction/retry counters reflect a membership
// eviction, alongside the cache hit ratio and latency histograms.
func TestStatusEndpointAfterEviction(t *testing.T) {
	r, regs := buildStatusRig(t, staticWorld{"shared": true})

	// srcA (preferred: smaller object) is dead from the start, so mid's
	// failure detector evicts it and the query fails over to srcC.
	if err := r.net.SetNodeDown("srcA", true); err != nil {
		t.Fatal(err)
	}
	mid := r.nodes["mid"]
	r.sched.After(time.Second, func() {
		if _, err := mid.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("shared")), 30*time.Second); err != nil {
			t.Errorf("QueryInit: %v", err)
		}
	})
	r.run(t, 40*time.Second)

	srv := httptest.NewServer(mid.StatusMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var s StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("decoding statusz: %v", err)
	}

	if s.Node != "mid" {
		t.Errorf("node = %q, want mid", s.Node)
	}
	if s.DirectoryVersion == 0 {
		t.Error("directory version missing from snapshot")
	}
	if got := uint64(s.Metrics.Gauges["directory.version"]); got != s.DirectoryVersion {
		t.Errorf("directory.version gauge = %d, want %d", got, s.DirectoryVersion)
	}

	a, ok := s.Peers["srcA"]
	if !ok {
		t.Fatalf("evicted srcA missing from peers: %v", s.Peers)
	}
	if a.Present || a.Alive {
		t.Errorf("evicted srcA should be absent and dead: %+v", a)
	}
	c, ok := s.Peers["srcC"]
	if !ok || !c.Present || !c.Alive {
		t.Errorf("healthy srcC should be present and alive: %+v (found %v)", c, ok)
	}

	if s.Stats.Evictions == 0 {
		t.Error("eviction counter missing from stats")
	}
	if s.Metrics.Counter("membership.evictions") == 0 {
		t.Error("membership.evictions counter not mirrored into metrics")
	}
	if s.CacheHitRatio < 0 || s.CacheHitRatio > 1 {
		t.Errorf("cache hit ratio out of range: %v", s.CacheHitRatio)
	}
	for _, h := range []string{"query.fetch_latency_s", "query.decision_age_s"} {
		hs, ok := s.Metrics.Histograms[h]
		if !ok {
			t.Errorf("histogram %s missing from snapshot", h)
			continue
		}
		if hs.Count == 0 {
			t.Errorf("histogram %s empty after a resolved query", h)
		}
	}

	// The auxiliary debug handlers share the mux.
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		dr, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		dr.Body.Close()
		if dr.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, dr.StatusCode)
		}
	}

	// The eviction is also visible on the registry directly (what athenad
	// would report without an HTTP round-trip).
	if regs["mid"].Snapshot().Counter("membership.evictions") == 0 {
		t.Error("registry snapshot lost the eviction")
	}
}

// /statusz asks the detector that is running. A SWIM prober contacts a given
// peer only every ~(n-1)/2k periods, so on an idle, healthy fleet most peers
// have been silent for longer than the flood's miss budget at any instant;
// that is not evidence, and every listed peer reads alive. A crashed peer
// reads not-alive at the nodes whose probe of it went unanswered, from the
// suspicion on, and absent everywhere once the eviction has spread.
func TestStatusLivenessUnderGossip(t *testing.T) {
	for _, n := range []int{32, 81} {
		r := buildGossipRig(t, n, 3, 7)
		r.run(t, 60*time.Second)
		for _, id := range r.ids {
			if ev := r.nodes[id].Stats().Evictions; ev != 0 {
				t.Fatalf("n=%d: %s evicted %d peers on an idle fleet", n, id, ev)
			}
			for peer, ps := range r.nodes[id].PeerLiveness() {
				if ps.Present && !ps.Alive {
					t.Errorf("n=%d: %s reports healthy %s not alive (last heard %v ago)",
						n, id, peer, tBase.Add(60*time.Second).Sub(ps.LastHeard))
				}
			}
		}
	}

	const n = 32
	r := buildGossipRig(t, n, 3, 13)
	r.run(t, 20*time.Second)
	// A leaf, so that nothing else becomes unreachable with it.
	victim := ""
	for _, id := range r.ids {
		if len(r.net.Neighbors(id)) == 1 {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("topology has no leaf node")
	}
	if err := r.net.SetNodeDown(victim, true); err != nil {
		t.Fatal(err)
	}
	// Suspicion window 9 s, then O(log n) rounds of dissemination.
	end := 20*time.Second + 9*time.Second + time.Duration(4*logRounds(n))*time.Second + 10*time.Second
	suspected := make(map[string]bool) // observers that have reported the victim present but not alive
	for at := 20 * time.Second; at <= end; at += 500 * time.Millisecond {
		r.run(t, at)
		for _, id := range r.ids {
			if id == victim {
				continue
			}
			ps := r.nodes[id].PeerLiveness()[victim]
			switch {
			case !ps.Present && ps.Alive:
				t.Fatalf("t=%v: %s reports evicted %s alive", at, id, victim)
			case ps.Present && !ps.Alive:
				suspected[id] = true
			case ps.Present && suspected[id]:
				t.Fatalf("t=%v: %s reports crashed %s alive again after suspecting it", at, id, victim)
			}
		}
	}
	if len(suspected) == 0 {
		t.Errorf("no node reported %s present-but-not-alive between its crash and its eviction", victim)
	}
	for _, id := range r.ids {
		if ps := r.nodes[id].PeerLiveness()[victim]; id != victim && (ps.Present || ps.Alive) {
			t.Errorf("%s still reports crashed %s present=%v alive=%v", id, victim, ps.Present, ps.Alive)
		}
	}
}

// TestRegistryCountsMatchStats pins what a fleet registry publishes, on
// the -fig dump cluster (gossip, churn) with batching on
// so that the batch counters move: exactly these counter, gauge and
// histogram names, and every counter equal to the plain count it is read
// from. A metric dropped, renamed or counted twice fails it.
func TestRegistryCountsMatchStats(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.GridRows, wcfg.GridCols = 6, 6
	wcfg.Nodes = 24
	wcfg.QueriesPerNode = 3
	wcfg.Seed = 1
	wcfg.FastRatio = 0.4
	s, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(s, ClusterConfig{
		Scheme:            SchemeLVF,
		HeartbeatInterval: 2 * time.Second,
		GossipFanout:      2,
		ChurnEvents:       3,
		ChurnOutage:       30 * time.Second,
		CoalesceWindow:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	var store, labels cache.Stats
	var failovers, inserts, expiries int64
	addCache := func(dst *cache.Stats, s cache.Stats) {
		dst.Hits += s.Hits
		dst.Misses += s.Misses
		dst.StaleDrops += s.StaleDrops
		dst.Evictions += s.Evictions
	}
	for _, n := range c.Nodes {
		addCache(&store, n.store.Stats())
		addCache(&labels, n.labels.Stats())
		failovers += n.failovers
		inserts += n.interest.inserts
		expiries += n.interest.expiries
	}
	st := out.Node
	want := map[string]int64{
		"retry.timeouts":             int64(st.RequestTimeouts),
		"retry.retransmits":          int64(st.Retransmits),
		"retry.failovers":            failovers,
		"membership.heartbeats_sent": int64(st.HeartbeatsSent),
		"membership.evictions":       int64(st.Evictions),
		"membership.sync_rounds":     int64(st.SyncExchanges),
		"membership.pings_sent":      int64(st.PingsSent),
		"membership.suspicions":      int64(st.Suspicions),
		"membership.refutations":     int64(st.Refutations),
		"membership.ctl_msgs":        int64(st.ControlMsgs),
		"membership.ctl_bytes":       st.ControlBytes,
		"batch.frames_saved":         int64(st.BatchedMsgs - st.BatchesSent),
		"batch.bytes_saved":          st.BatchBytesSaved,
		"interest.inserts":           inserts,
		"interest.expiries":          expiries,
	}
	for prefix, cs := range map[string]cache.Stats{"cache": store, "labels": labels} {
		want[prefix+".hits"] = cs.Hits
		want[prefix+".misses"] = cs.Misses
		want[prefix+".stale_drops"] = cs.StaleDrops
		want[prefix+".evictions"] = cs.Evictions
	}
	if len(want) != 23 {
		t.Fatalf("the test lists %d counters, want 23", len(want))
	}
	got := out.Metrics.Counters
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("counter %s = %d (present %v), want %d", name, g, ok, v)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected counter %s = %d", name, got[name])
		}
	}
	// Identities that hold at zero prove little: the run must move these.
	for _, name := range []string{"retry.timeouts", "membership.pings_sent", "membership.ctl_bytes",
		"batch.frames_saved", "batch.bytes_saved", "cache.hits", "interest.inserts"} {
		if got[name] == 0 {
			t.Errorf("counter %s is 0 on the dump cluster with batching on", name)
		}
	}

	if g := out.Metrics.Gauges; len(g) != 1 || g["directory.version"] == 0 {
		t.Errorf("gauges = %v, want directory.version alone, non-zero", g)
	}
	hists := []string{"batch.size", "membership.convergence_s", "query.decision_age_s",
		"query.fetch_latency_s", "query.resolve_latency_s"}
	for _, name := range hists {
		if _, ok := out.Metrics.Histograms[name]; !ok {
			t.Errorf("histogram %s missing", name)
		}
	}
	if len(out.Metrics.Histograms) != len(hists) {
		t.Errorf("%d histograms, want %d: %v", len(out.Metrics.Histograms), len(hists), hists)
	}
}
