package athena

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// routedNode is the query path of a sharded node that replicates no shard
// and holds no payload: every label's candidates come from the lookup
// cache, filled here the way completed ShardLookups fill it. It has no
// transport, so a label outside descs (a cache miss) must not be asked.
func routedNode(tb testing.TB, descs []object.Descriptor) *Node {
	tb.Helper()
	sr := NewShardRouter("querier", 16, 2, shardCacheSize)
	members := make([]string, len(descs))
	byLabel := make(map[string][]Advertisement)
	for i, d := range descs {
		members[i] = d.Source
		for _, l := range d.Labels {
			byLabel[l] = append(byLabel[l], advertisementOf(d, uint64(i)+1))
		}
	}
	sr.Refresh(members)
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		msg, ok := sr.Begin(l, "")
		if !ok {
			tb.Fatalf("no replica to ask for %s", l)
		}
		if _, ok := sr.Complete(msg.Nonce, byLabel[l]); !ok {
			tb.Fatalf("lookup for %s did not complete", l)
		}
	}
	return &Node{id: "querier", dir: NewDirectory(nil), shard: &shardClient{router: sr}}
}

// twoPassPick is the pick rule as it was written before the single pass:
// the cheapest non-excluded preferred source, else the cheapest
// non-excluded source, ties to the smaller id. The reference both pickers
// are compared against.
func twoPassPick(descs []object.Descriptor, preferred []string, exclude map[string]bool) string {
	best := ""
	var bestSize int64
	for _, preferredOnly := range []bool{true, false} {
		for _, d := range descs {
			if exclude[d.Source] || (preferredOnly && !slices.Contains(preferred, d.Source)) {
				continue
			}
			if best == "" || d.Size < bestSize || (d.Size == bestSize && d.Source < best) {
				best, bestSize = d.Source, d.Size
			}
		}
		if best != "" {
			break
		}
	}
	return best
}

// The two pick loops that remain — the directory's over its label index,
// the node's over a lookup-cache result priced through descriptorOf —
// make the same choice: 200 seeded cases with few distinct sizes (ties),
// preferred ids that do not cover the label, and every source excluded.
// Through sourceFor the same holds with a query's suspects steered around,
// and each routed resolution counts one ShardLookupHits.
func TestPickCachedMatchesDirectoryPick(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	expr := boolexpr.ToDNF(boolexpr.MustParse("l"))
	for c := 0; c < 200; c++ {
		var descs []object.Descriptor
		var preferred []string
		exclude := make(map[string]bool)
		mode := rng.Intn(4) // 0: nobody excluded; 3: everybody
		for i, covering := range rng.Perm(8) {
			id := fmt.Sprintf("s%d", i)
			if covering <= rng.Intn(6) {
				descs = append(descs, dirDesc(id, "/pick/"+id, int64(100*(1+rng.Intn(3))), "l"))
			}
			if rng.Intn(3) == 0 {
				preferred = append(preferred, id)
			}
			if mode == 3 || (mode != 0 && rng.Intn(5) < 2) {
				exclude[id] = true
			}
		}
		rng.Shuffle(len(descs), func(i, j int) { descs[i], descs[j] = descs[j], descs[i] })
		if len(descs) == 0 {
			continue // an empty lookup result is not cached
		}
		want := twoPassPick(descs, preferred, exclude)
		if mode == 3 && want != "" {
			t.Fatalf("case %d: reference picked %q with every source excluded", c, want)
		}

		dir := NewDirectory(descs)
		routed := routedNode(t, descs)
		srcs, ok := routed.shard.router.CachedSources("l")
		if !ok {
			t.Fatalf("case %d: label not in the lookup cache", c)
		}
		if got := dir.SourceForLabelExcluding("l", preferred, exclude); got != want {
			t.Errorf("case %d: directory picked %q, want %q (preferred %v, exclude %v)", c, got, want, preferred, exclude)
		}
		if got := routed.pickCached(srcs, preferred, exclude); got != want {
			t.Errorf("case %d: node picked %q over the cached result, want %q (preferred %v, exclude %v)", c, got, want, preferred, exclude)
		}

		q := &localQuery{engine: core.NewEngine("q", expr, time.Time{}, nil), selected: preferred, suspect: exclude}
		if want == "" {
			want = twoPassPick(descs, preferred, nil) // all suspect: the primary is retried
		}
		local := &Node{id: "querier", dir: dir}
		if got := local.sourceFor(q, "l"); got != want {
			t.Errorf("case %d: full-replica sourceFor = %q, want %q", c, got, want)
		}
		if got := routed.sourceFor(q, "l"); got != want {
			t.Errorf("case %d: routed sourceFor = %q, want %q", c, got, want)
		}
		if hits := routed.stats.ShardLookupHits; hits != 1 {
			t.Errorf("case %d: ShardLookupHits = %d after one routed resolution, want 1", c, hits)
		}
	}
}

// On a converged sharded fleet whose lookups have completed, source
// selection is the full replica's: for 50 seeded label sets — labels a
// node owns, labels it routed for, the label every source covers, a label
// nobody covers — every node selects what Directory.SelectSources selects
// over the whole directory, and counts one ShardLookupHits per label it
// served from the lookup cache.
func TestShardedSelectSourcesMatchesFullReplica(t *testing.T) {
	const (
		n      = 24
		shards = 16
		rf     = 3
	)
	r := buildShardRig(t, n, shards, rf, 13)
	r.run(t, 10*time.Second) // settle: first refresh thins the replicas
	full := buildShardRig(t, n, 0, 0, 13).nodes["n0"].Directory()

	rng := rand.New(rand.NewSource(13))
	sets := make([][]string, 50)
	for i := range sets {
		pick := map[string]bool{}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			pick[fmt.Sprintf("s%02d", rng.Intn(n))] = true
		}
		if rng.Intn(3) == 0 {
			pick["ok"] = true
		}
		if rng.Intn(5) == 0 {
			pick["uncovered"] = true
		}
		for l := range pick {
			sets[i] = append(sets[i], l)
		}
		sort.Strings(sets[i]) // as Engine.Labels lists them
	}
	selectAt := func(node *Node, labels []string) []string {
		node.mu.Lock()
		defer node.mu.Unlock()
		return node.selectSources("", labels)
	}

	// The first pass starts a routed lookup for every label a node does
	// not own; the replies land while the fleet runs on.
	for _, id := range r.ids {
		for _, set := range sets {
			selectAt(r.nodes[id], set)
		}
	}
	r.run(t, 30*time.Second)

	routedAnywhere := 0
	for _, id := range r.ids {
		node := r.nodes[id]
		before := node.Stats().ShardLookupHits
		routed := 0
		for _, set := range sets {
			if got, want := selectAt(node, set), full.SelectSources(set); !slices.Equal(got, want) {
				t.Errorf("%s selects %v for %v, full replica %v", id, got, set, want)
			}
			for _, l := range set {
				if l != "uncovered" && !node.shard.router.OwnsLabel(l) {
					routed++
				}
			}
		}
		if hits := node.Stats().ShardLookupHits - before; hits != routed {
			t.Errorf("%s: ShardLookupHits moved by %d over %d labels served from the lookup cache", id, hits, routed)
		}
		routedAnywhere += routed
	}
	if routedAnywhere == 0 {
		t.Fatal("no label was routed: the fleet is not sharded")
	}
}

// selectFixture is a Sec. VII-shaped selection: a route-finding query's 30
// segment labels over 25 cameras, each covering four adjacent segments at
// one of eleven object sizes.
func selectFixture() (descs []object.Descriptor, labels []string) {
	for l := 0; l < 30; l++ {
		labels = append(labels, fmt.Sprintf("seg%02d", l))
	}
	for j := 0; j < 25; j++ {
		id := fmt.Sprintf("cam%02d", j)
		var covers []string
		for k := 0; k < 4; k++ {
			covers = append(covers, labels[(j*6/5+k)%len(labels)])
		}
		descs = append(descs, dirDesc(id, "/city/"+id, int64(100_000+j*37%11*50_000), covers...))
	}
	return descs, labels
}

// BenchmarkSelectSources is what every QueryInit pays for source selection,
// on a full replica and on a sharded node serving every label from its
// lookup cache. The two must select the same sources; ci.sh gates the
// sharded allocs/op, which is where a second copy of the cover — its own
// candidate set, its per-source filtered label slices — shows.
func BenchmarkSelectSources(b *testing.B) {
	descs, labels := selectFixture()
	full := &Node{id: "querier", dir: NewDirectory(descs)}
	sharded := routedNode(b, descs)
	want := full.dir.SelectSources(labels)
	if len(want) < 8 {
		b.Fatalf("fixture selects %v, want a cover of several sources", want)
	}
	for _, c := range []struct {
		name string
		node *Node
	}{{"full", full}, {"sharded", sharded}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := c.node.selectSources("q", labels); !slices.Equal(got, want) {
					b.Fatalf("selected %v, want %v", got, want)
				}
			}
		})
	}
}
