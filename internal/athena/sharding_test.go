package athena

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
)

// shardRig is a gossip fleet with per-node labels and prefix-diverse
// names, so a sharded directory actually partitions and queries actually
// route. shards=0 builds the full-replica baseline on the same topology.
type shardRig struct {
	sched *simclock.Scheduler
	net   *netsim.Network
	ids   []string
	nodes map[string]*Node
}

func buildShardRig(t *testing.T, n, shards, rf int, seed int64) *shardRig {
	t.Helper()
	sched := simclock.New(tBase)
	net := netsim.New(sched)
	rng := rand.New(rand.NewSource(seed))
	linkCfg := netsim.LinkConfig{Bandwidth: 1 << 20, Latency: time.Millisecond}
	if err := netsim.BuildRandomConnected(net, n, n/2, linkCfg, rng); err != nil {
		t.Fatal(err)
	}

	r := &shardRig{sched: sched, net: net, nodes: make(map[string]*Node)}
	descs := make([]object.Descriptor, n)
	meta := make(boolexpr.MetaTable)
	world := staticWorld{}
	for i := range descs {
		id := fmt.Sprintf("n%d", i)
		r.ids = append(r.ids, id)
		label := fmt.Sprintf("s%02d", i)
		descs[i] = object.Descriptor{
			// Eight name-prefix groups, so the prefix partition has spread.
			Name: names.MustParse(fmt.Sprintf("/grid/g%d/%s", i%8, id)),
			Size: 1000, Source: id,
			Labels: []string{label, "ok"}, Validity: time.Minute, ProbTrue: 0.8,
		}
		meta[label] = boolexpr.Meta{Cost: 1000, ProbTrue: 0.8, Validity: time.Minute}
		world[label] = true
	}
	meta["ok"] = boolexpr.Meta{Cost: 1000, ProbTrue: 0.8, Validity: time.Minute}
	world["ok"] = true
	auth := trust.NewAuthority()
	for i, id := range r.ids {
		desc := descs[i]
		node, err := New(Config{
			ID:                id,
			Transport:         transport.NewSim(net, id),
			Router:            net,
			Timers:            LaneTimers{Lane: sched.Lane},
			Scheme:            SchemeLVF,
			Directory:         NewDirectory(descs),
			Meta:              meta,
			World:             world,
			Authority:         auth,
			Signer:            auth.Register(id, []byte("k-"+id)),
			Policy:            trust.TrustAll(),
			Descriptor:        &desc,
			CacheBytes:        8 << 20,
			DisablePrefetch:   true,
			HeartbeatInterval: time.Second,
			HeartbeatMiss:     3,
			GossipFanout:      2,
			GossipSeed:        seed,
			Shards:            shards,
			ShardReplicas:     rf,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[id] = node
	}
	return r
}

func (r *shardRig) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := r.sched.RunUntil(tBase.Add(until), 0); err != nil {
		t.Fatal(err)
	}
}

// statuses collects the terminal status of every query issued on the rig,
// keyed by query id.
func (r *shardRig) statuses() map[string]string {
	out := make(map[string]string)
	for _, id := range r.ids {
		for _, res := range r.nodes[id].Results() {
			out[res.QueryID] = res.Status.String()
		}
	}
	return out
}

// Sharding is off by default, and the degenerate configuration — one shard
// replicated on every node — must behave exactly like the full replica:
// every node owns everything, nothing is thinned, no lookup is ever
// routed, and the same workload resolves to the same statuses.
func TestFullReplicaUnchangedBySharding(t *testing.T) {
	const n = 16
	workload := func(r *shardRig) {
		r.run(t, 10*time.Second)
		for j := 0; j < 4; j++ {
			origin := r.nodes[r.ids[j*3]]
			label := fmt.Sprintf("s%02d", (j*3+n/2)%n)
			if _, err := origin.QueryInit(boolexpr.ToDNF(boolexpr.MustParse(label+" & ok")), 30*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		r.run(t, 60*time.Second)
	}

	full := buildShardRig(t, n, 0, 0, 7)
	workload(full)
	degen := buildShardRig(t, n, 1, n, 7)
	workload(degen)

	wantDigest := full.nodes[full.ids[0]].Directory().Digest()
	for _, id := range degen.ids {
		node := degen.nodes[id]
		if got := node.Directory().Digest(); got != wantDigest {
			t.Errorf("%s digest diverged from full-replica baseline", id)
		}
		if got := node.Directory().EntriesHeld(); got != n {
			t.Errorf("%s EntriesHeld = %d, want %d (degenerate shard owns all)", id, got, n)
		}
		st := node.Stats()
		if st.ShardLookups != 0 || st.ShardReroutes != 0 {
			t.Errorf("%s routed lookups in degenerate sharding: %+v", id, st)
		}
	}
	fullRes, degenRes := full.statuses(), degen.statuses()
	if len(fullRes) != 4 || len(degenRes) != 4 {
		t.Fatalf("results: full %d, degenerate %d, want 4 each", len(fullRes), len(degenRes))
	}
	for qid, status := range fullRes {
		if degenRes[qid] != status {
			t.Errorf("query %s: full-replica %s, degenerate-shard %s", qid, status, degenRes[qid])
		}
		if status != "resolved-true" {
			t.Errorf("query %s did not resolve true: %s", qid, status)
		}
	}
}

// With real sharding on, nodes hold strictly fewer directory payloads than
// a full replica, queries for unowned labels route to shard owners and
// still resolve, and the lookup machinery actually runs.
func TestShardedClusterResolvesRoutedQueries(t *testing.T) {
	const (
		n      = 24
		shards = 16
		rf     = 3
	)
	r := buildShardRig(t, n, shards, rf, 9)
	r.run(t, 10*time.Second) // settle: first refresh thins the replicas

	held := 0
	for _, id := range r.ids {
		held += r.nodes[id].Directory().EntriesHeld()
	}
	if held >= n*n {
		t.Fatalf("total entries held = %d, want < %d (full replication)", held, n*n)
	}

	queries := 0
	for j := 0; j < 6; j++ {
		origin := r.nodes[r.ids[j*4]]
		label := fmt.Sprintf("s%02d", (j*4+n/2)%n)
		if _, err := origin.QueryInit(boolexpr.ToDNF(boolexpr.MustParse(label)), 40*time.Second); err != nil {
			t.Fatal(err)
		}
		queries++
	}
	r.run(t, 80*time.Second)

	res := r.statuses()
	if len(res) != queries {
		t.Fatalf("got %d results, want %d", len(res), queries)
	}
	for qid, status := range res {
		if status != "resolved-true" {
			t.Errorf("query %s = %s, want resolved-true", qid, status)
		}
	}
	lookups, served := 0, 0
	for _, id := range r.ids {
		st := r.nodes[id].Stats()
		lookups += st.ShardLookups
		served += st.ShardServed
	}
	if lookups == 0 {
		t.Error("no routed shard lookups despite unowned query labels")
	}
	if served == 0 {
		t.Error("no node served a shard lookup")
	}
	if info, ok := r.nodes[r.ids[0]].ShardInfo(); !ok || info.Shards != shards || info.Replicas != rf {
		t.Errorf("ShardInfo = %+v, %v; want shards=%d rf=%d", info, ok, shards, rf)
	}
}

// An evicted shard owner's lookups re-route: pending lookups walk to the
// next replica in rendezvous order and later queries reach the surviving
// owners, so resolution survives the crash of a shard's primary.
func TestShardedClusterSurvivesOwnerCrash(t *testing.T) {
	const (
		n      = 24
		shards = 16
		rf     = 3
	)
	r := buildShardRig(t, n, shards, rf, 21)
	r.run(t, 10*time.Second)

	// Crash a leaf (routes are not failure-aware; a transit crash would
	// legitimately strand nodes behind it).
	dead := ""
	for _, id := range r.ids {
		if len(r.net.Neighbors(id)) == 1 {
			dead = id
			break
		}
	}
	if dead == "" {
		t.Fatal("topology has no leaf node")
	}
	if err := r.net.SetNodeDown(dead, true); err != nil {
		t.Fatal(err)
	}
	r.run(t, 60*time.Second) // suspicion window + eviction + re-ownership

	// Every surviving node's queries still resolve, whoever owned what.
	queries := 0
	for j := 0; j < 4; j++ {
		originID := r.ids[(j*5)%n]
		targetID := (j*5 + n/2) % n
		if originID == dead || r.ids[targetID] == dead {
			continue
		}
		label := fmt.Sprintf("s%02d", targetID)
		if _, err := r.nodes[originID].QueryInit(boolexpr.ToDNF(boolexpr.MustParse(label)), 40*time.Second); err != nil {
			t.Fatal(err)
		}
		queries++
	}
	if queries == 0 {
		t.Fatal("workload degenerated: every query touched the dead node")
	}
	r.run(t, 120*time.Second)

	res := r.statuses()
	if len(res) != queries {
		t.Fatalf("got %d results, want %d", len(res), queries)
	}
	for qid, status := range res {
		if status != "resolved-true" {
			t.Errorf("query %s = %s, want resolved-true", qid, status)
		}
	}
	for _, id := range r.ids {
		if id == dead {
			continue
		}
		if r.nodes[id].Directory().Has(dead) {
			t.Errorf("%s still lists crashed %s", id, dead)
		}
	}
}
