package athena

import (
	"maps"
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

// runEngine runs one scenario on the given lane layout and returns its
// outcome.
func runEngine(t *testing.T, lanePerNode bool, churn int, gossip bool) Outcome {
	t.Helper()
	s := engineScenario(t)
	ccfg := ClusterConfig{
		Scheme:            SchemeLVF,
		HeartbeatInterval: 2 * time.Second,
		HeartbeatMiss:     3,
		ChurnEvents:       churn,
		ChurnOutage:       30 * time.Second,
	}
	if gossip {
		ccfg.GossipFanout = 2
	}
	if lanePerNode {
		ccfg.Workers = 1
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

// requireOutcomesEqual compares the deterministic portions of two
// outcomes: everything except the metrics snapshot's float-valued
// histogram sums (whose accumulation order is layout-defined). With
// latencySlack > 0, MeanLatency may differ by up to that much — used
// when comparing the two lane layouts, whose tie-break rules for
// same-instant events are different but equally valid, which can shift
// individual message timings by microseconds without changing what the
// fleet computes. Layout-to-layout comparisons therefore allow the
// slack; two runs of one layout must be exact.
func requireOutcomesEqual(t *testing.T, label string, a, b Outcome, latencySlack time.Duration) {
	t.Helper()
	if a.QueriesIssued != b.QueriesIssued || a.QueriesResolved != b.QueriesResolved ||
		a.ResolvedTrue != b.ResolvedTrue || a.ResolvedFalse != b.ResolvedFalse {
		t.Errorf("%s: resolution diverged: %d/%d (%d true, %d false) vs %d/%d (%d true, %d false)",
			label, a.QueriesResolved, a.QueriesIssued, a.ResolvedTrue, a.ResolvedFalse,
			b.QueriesResolved, b.QueriesIssued, b.ResolvedTrue, b.ResolvedFalse)
	}
	if a.TotalBytes != b.TotalBytes {
		t.Errorf("%s: TotalBytes diverged: %d vs %d", label, a.TotalBytes, b.TotalBytes)
	}
	if d := a.MeanLatency - b.MeanLatency; d > latencySlack || -d > latencySlack {
		t.Errorf("%s: MeanLatency diverged: %v vs %v", label, a.MeanLatency, b.MeanLatency)
	}
	if a.Node != b.Node {
		t.Errorf("%s: node stats diverged:\n%+v\nvs\n%+v", label, a.Node, b.Node)
	}
	// Every counter, not a list of them: on these scenarios the whole map
	// agrees between the layouts, and an empty map would agree trivially.
	if len(a.Metrics.Counters) == 0 {
		t.Errorf("%s: the first outcome has no counters", label)
	}
	if !maps.Equal(a.Metrics.Counters, b.Metrics.Counters) {
		t.Errorf("%s: counters diverged:\n%v\nvs\n%v", label, a.Metrics.Counters, b.Metrics.Counters)
	}
	if av, bv := a.Metrics.Gauges["directory.version"], b.Metrics.Gauges["directory.version"]; av != bv {
		t.Errorf("%s: directory.version diverged: %d vs %d", label, av, bv)
	}
}

// TestClusterKernelMatchesSequential pins the lane-per-node layout to
// the shared lane on a full flood-membership cluster
// scenario: identical resolution, traffic, and node counters, with
// mean latency agreeing to well under a millisecond (same-instant tie
// order is the layouts' one permitted difference — see
// requireOutcomesEqual; netsim's TestParallelMatchesSequentialOutcome
// pins loss, outage, and churn injection exactly at the network layer).
func TestClusterKernelMatchesSequential(t *testing.T) {
	seqOut := runEngine(t, false, 0, false)
	kernOut := runEngine(t, true, 0, false)
	requireOutcomesEqual(t, "shared lane vs lane per node", seqOut, kernOut, time.Millisecond)
}

// TestClusterKernelWorkerCountInvariant pins the headline guarantee at
// the cluster layer: a lane-per-node run repeated with the same seed
// gives the same outcome — exact equality, no slack, on the most
// timing-sensitive configuration (gossip membership plus churn). (It
// compared worker counts until the kernel lost its worker pool; the name
// is kept.)
func TestClusterKernelWorkerCountInvariant(t *testing.T) {
	requireOutcomesEqual(t, "first vs second run", runEngine(t, true, 3, true), runEngine(t, true, 3, true), 0)
}

// TestClusterKernelOnSharedLane: the shared layout is a one-lane kernel,
// and Cluster.Kernel is that kernel, not nil, so its event count is there
// to read on either layout.
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
