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

// memberRig is a line network srcA - mid - srcC with live membership on:
// both ends advertise a stream covering the shared label (srcA cheaper),
// and every node keeps its own directory replica, as a deployment would.
type memberRig struct {
	sched *simclock.Scheduler
	net   *netsim.Network
	nodes map[string]*Node
}

func buildMemberRig(t *testing.T, world staticWorld, interval time.Duration, miss int) *memberRig {
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
			Labels: []string{"shared", "la1"}, Validity: time.Minute, ProbTrue: 0.8,
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
		"la1":    {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
	}

	r := &memberRig{sched: sched, net: net, nodes: make(map[string]*Node)}
	for _, id := range []string{"srcA", "mid", "srcC"} {
		node, err := New(Config{
			ID:                id,
			Transport:         transport.NewSim(net, id),
			Router:            net,
			Timers:            LaneTimers{Lane: sched.Lane},
			Scheme:            SchemeLVF,
			Directory:         NewDirectory(all), // per-node replica
			Meta:              meta,
			World:             world,
			Authority:         auth,
			Signer:            auth.Register(id, []byte("k-"+id)),
			Policy:            trust.TrustAll(),
			Descriptor:        descs[id],
			CacheBytes:        8 << 20,
			DisablePrefetch:   true,
			HeartbeatInterval: interval,
			HeartbeatMiss:     miss,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[id] = node
	}
	return r
}

func (r *memberRig) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := r.sched.RunUntil(tBase.Add(until), 0); err != nil {
		t.Fatal(err)
	}
}

// A silent source is evicted after the miss budget and the in-flight fetch
// is re-sourced to the alternate covering source, resolving the query well
// before the retry layer alone would have.
func TestMembershipEvictsSilentSourceAndReSources(t *testing.T) {
	world := staticWorld{"shared": true}
	r := buildMemberRig(t, world, time.Second, 3)

	// srcA (the preferred, cheaper source) is dead from the start.
	if err := r.net.SetNodeDown("srcA", true); err != nil {
		t.Fatal(err)
	}

	mid := r.nodes["mid"]
	var id string
	r.sched.After(time.Second, func() {
		var err error
		id, err = mid.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("shared")), 30*time.Second)
		if err != nil {
			t.Errorf("QueryInit: %v", err)
		}
	})
	r.run(t, 40*time.Second)

	st := mid.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected mid to evict the silent srcA; stats %+v", st)
	}
	if mid.Directory().Has("srcA") {
		t.Fatal("srcA still present in mid's directory")
	}
	results := mid.Results()
	if len(results) != 1 || results[0].QueryID != id {
		t.Fatalf("expected one result for %s, got %+v", id, results)
	}
	if results[0].Status != core.ResolvedTrue {
		t.Fatalf("query not resolved after re-sourcing: %+v", results[0])
	}
	// Eviction (3 missed 1s beats) must beat the pure retry failover path:
	// resolution should come just a few seconds after issuance.
	latency := results[0].Finished.Sub(results[0].Issued)
	if latency > 15*time.Second {
		t.Fatalf("re-sourced resolution took %v; eviction should be much faster", latency)
	}
}

// A partition makes both sides evict each other; after the link heals, the
// next heartbeat reveals the missing advertisements and a push-pull
// anti-entropy exchange re-admits the sources and reconciles the label
// caches across the old partition boundary.
func TestMembershipPartitionHealAntiEntropy(t *testing.T) {
	runOnce := func(t *testing.T) (Stats, Stats) {
		world := staticWorld{"shared": true, "la1": true}
		r := buildMemberRig(t, world, time.Second, 3)

		// Partition srcC away from {srcA, mid} between t=2s and t=15s.
		if err := r.net.ScheduleLinkOutage("mid", "srcC", tBase.Add(2*time.Second), 13*time.Second); err != nil {
			t.Fatal(err)
		}

		// During the partition, mid resolves la1 from srcA, computing a
		// label record srcC cannot have seen.
		mid := r.nodes["mid"]
		r.sched.After(4*time.Second, func() {
			if _, err := mid.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("la1")), 20*time.Second); err != nil {
				t.Errorf("QueryInit: %v", err)
			}
		})

		// Let the partition persist long enough for mutual eviction.
		r.run(t, 14*time.Second)
		srcC := r.nodes["srcC"]
		if srcC.Directory().Has("srcA") {
			t.Fatal("srcC should have evicted srcA during the partition")
		}
		if mid.Directory().Has("srcC") {
			t.Fatal("mid should have evicted srcC during the partition")
		}

		// Heal and give anti-entropy a few heartbeat intervals.
		r.run(t, 25*time.Second)
		for _, id := range []string{"srcA", "mid", "srcC"} {
			dir := r.nodes[id].Directory()
			for _, src := range []string{"srcA", "srcC"} {
				if !dir.Has(src) {
					t.Fatalf("after heal, %s's directory is missing %s", id, src)
				}
			}
		}
		// The anti-entropy exchange also reconciled label caches: srcC now
		// holds the la1 record computed on the other side of the partition.
		srcC.mu.Lock()
		_, hasLabel := srcC.labels.Get("la1", trust.TrustAll(), srcC.now())
		srcC.mu.Unlock()
		if !hasLabel {
			t.Fatal("after heal, srcC's label cache is missing la1")
		}
		if st := srcC.Stats(); st.SyncExchanges == 0 {
			t.Fatalf("expected srcC to initiate anti-entropy; stats %+v", st)
		}
		return mid.Stats(), srcC.Stats()
	}

	mid1, srcC1 := runOnce(t)
	mid2, srcC2 := runOnce(t)
	if mid1 != mid2 || srcC1 != srcC2 {
		t.Fatalf("partition-heal run is not deterministic:\nrun1 mid=%+v srcC=%+v\nrun2 mid=%+v srcC=%+v",
			mid1, srcC1, mid2, srcC2)
	}
}

// A graceful leave tombstones the advertisement everywhere immediately (no
// miss budget) and a later stale re-advertisement cannot resurrect it.
func TestMembershipGracefulLeave(t *testing.T) {
	world := staticWorld{"shared": true}
	r := buildMemberRig(t, world, time.Second, 3)

	r.sched.After(2*time.Second, func() {
		if err := r.nodes["srcA"].Leave(); err != nil {
			t.Errorf("Leave: %v", err)
		}
	})
	r.run(t, 4*time.Second)

	for _, id := range []string{"mid", "srcC"} {
		dir := r.nodes[id].Directory()
		if dir.Has("srcA") {
			t.Fatalf("%s still lists srcA after its leave", id)
		}
		seq, present, withdrawn := dir.Known("srcA")
		if present || !withdrawn || seq == 0 {
			t.Fatalf("%s: want withdrawn tombstone for srcA, got seq=%d present=%v withdrawn=%v",
				id, seq, present, withdrawn)
		}
	}

	// Queries after the leave go straight to the alternate source.
	mid := r.nodes["mid"]
	r.sched.After(time.Second, func() {
		if _, err := mid.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("shared")), 20*time.Second); err != nil {
			t.Errorf("QueryInit: %v", err)
		}
	})
	r.run(t, 15*time.Second)
	if st := mid.Stats(); st.ResolvedTrue != 1 {
		t.Fatalf("query after leave did not resolve via srcC: %+v", st)
	}
}
