package athena

import (
	"reflect"
	"testing"
	"time"

	"athena/internal/workload"
)

// engineScenario is the small fleet the layout tests run.
func engineScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.GridRows, wcfg.GridCols = 5, 5
	wcfg.Nodes = 14
	wcfg.QueriesPerNode = 2
	wcfg.Seed = 11
	wcfg.FastRatio = 0.4
	s, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runEngine runs one scenario with the given ClusterConfig.Workers and
// returns its outcome.
func runEngine(t *testing.T, workers, churn int, gossip bool) Outcome {
	t.Helper()
	s := engineScenario(t)
	ccfg := ClusterConfig{
		Scheme:            SchemeLVF,
		Workers:           workers,
		HeartbeatInterval: 2 * time.Second,
		ChurnEvents:       churn,
		ChurnOutage:       30 * time.Second,
	}
	if gossip {
		ccfg.GossipFanout = 2
	}
	cluster, err := NewCluster(s, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cluster.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireOutcomesEqual fails unless two outcomes are identical, naming the
// first part that differs.
func requireOutcomesEqual(t *testing.T, label string, a, b Outcome) {
	t.Helper()
	if a.QueriesIssued != b.QueriesIssued || a.QueriesResolved != b.QueriesResolved ||
		a.ResolvedTrue != b.ResolvedTrue || a.ResolvedFalse != b.ResolvedFalse {
		t.Errorf("%s: resolution diverged: %d/%d (%d true, %d false) vs %d/%d (%d true, %d false)",
			label, a.QueriesResolved, a.QueriesIssued, a.ResolvedTrue, a.ResolvedFalse,
			b.QueriesResolved, b.QueriesIssued, b.ResolvedTrue, b.ResolvedFalse)
	}
	if a.TotalBytes != b.TotalBytes || a.MeanLatency != b.MeanLatency {
		t.Errorf("%s: TotalBytes/MeanLatency diverged: %d/%v vs %d/%v", label, a.TotalBytes, a.MeanLatency, b.TotalBytes, b.MeanLatency)
	}
	if a.Node != b.Node {
		t.Errorf("%s: node stats diverged:\n%+v\nvs\n%+v", label, a.Node, b.Node)
	}
	// Every counter, not a list of them: an empty map would agree
	// trivially.
	if len(a.Metrics.Counters) == 0 {
		t.Errorf("%s: the first outcome has no counters", label)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: outcomes diverged:\n%+v\nvs\n%+v", label, a, b)
	}
}

// TestClusterKernelMatchesSequential: ClusterConfig.Workers is ignored.
// NewCluster at Workers 0 and 1 returns identical outcomes, on the small
// gossip+churn fleet and on the kernel_fleet configuration's seed 2, and
// both equal the recorded literals. They were the shared lane's outcome
// before the lane-per-node layout was removed (that layout resolved 243
// of seed 2's decisions, in 805 604 745 bytes), and were recorded again
// once when a sharded node's first refresh stopped backfilling the shards
// it had kept all along (807 873 439 bytes before), and once when a lookup
// began asking its nearest replica instead of the shard's primary (242 of
// 243 resolved in 807 302 191 bytes, mean 2.397304279 s, before), and once
// when a sharded node's digest came to cover only what a scoped sync can
// reconcile (778 722 682 bytes before: the syncs it stopped), and once when
// a lookup came to ask for a region's shard (243 of 243, 145 true, in
// 778 655 554 bytes, mean 2.529866947 s, before), and once when data that
// no waiter asked for stopped going on toward its query's origin
// (783 941 868 bytes before), and once when a record came to be scoped by
// its labels' shards alone (778 901 650 bytes, mean 2.438750785 s,
// before).
func TestClusterKernelMatchesSequential(t *testing.T) {
	requireOutcomesEqual(t, "engine scenario, workers 0 vs 1", runEngine(t, 0, 3, true), runEngine(t, 1, 3, true))

	run := func(workers int) Outcome {
		out, err := kernelFleet(t, 2, workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	shared, lanes := run(0), run(1)
	requireOutcomesEqual(t, "kernel_fleet seed 2, workers 0 vs 1", shared, lanes)
	if shared.QueriesResolved != 242 || shared.QueriesIssued != 243 || shared.ResolvedTrue != 146 ||
		shared.TotalBytes != 779386924 || shared.MeanLatency != 2439738451 {
		t.Errorf("kernel_fleet seed 2: %d/%d resolved (%d true), %d bytes, mean %v; recorded 242/243 (146 true), 779386924 bytes, mean 2.439738451s",
			shared.QueriesResolved, shared.QueriesIssued, shared.ResolvedTrue, shared.TotalBytes, shared.MeanLatency)
	}
}

// kernelFleet builds the kernel_fleet benchmark configuration's cluster
// on one seed: 81 nodes on a 9×9 grid, SWIM gossip, 400 shards of three
// replicas, batching and three churn events.
func kernelFleet(t *testing.T, seed int64, workers int) *Cluster {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.GridRows, wcfg.GridCols, wcfg.Nodes = 9, 9, 81
	wcfg.LinkBandwidth = 1.25e6
	wcfg.Seed = seed
	s, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(s, ClusterConfig{
		Scheme: SchemeLVF, Workers: workers, HeartbeatInterval: 2 * time.Second, GossipFanout: 2,
		Shards: 400, ShardReplicas: 3, CoalesceWindow: 10 * time.Millisecond,
		ChurnEvents: 3, ChurnOutage: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterKernelWorkerCountInvariant pins the headline guarantee at
// the cluster layer: a run repeated with the same seed gives the same
// outcome, on the most timing-sensitive configuration (gossip membership
// plus churn). (It compared worker counts until the kernel lost its
// worker pool; the name is kept.)
func TestClusterKernelWorkerCountInvariant(t *testing.T) {
	requireOutcomesEqual(t, "first vs second run", runEngine(t, 0, 3, true), runEngine(t, 0, 3, true))
}

// TestClusterKernelOnSharedLane: Cluster.Kernel is the network's kernel,
// not nil, so its event count is there to read.
func TestClusterKernelOnSharedLane(t *testing.T) {
	c, err := NewCluster(engineScenario(t), ClusterConfig{Scheme: SchemeLVF})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n := c.Kernel.Executed(); n <= 0 {
		t.Fatalf("Kernel.Executed() = %d after a run", n)
	}
	if c.Kernel != c.Network.Kernel() {
		t.Fatal("Cluster.Kernel is not the network's kernel")
	}
}
