package athena

import (
	"testing"
	"time"

	"athena/internal/workload"
)

// runEngines runs one scenario on the given engine configuration and
// returns its outcome. Workers 0 = one shared lane; > 0 = a lane per node.
func runEngine(t *testing.T, workers int, churn int, gossip bool) Outcome {
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
	ccfg := ClusterConfig{
		Scheme:            SchemeLVF,
		Workers:           workers,
		HeartbeatInterval: 2 * time.Second,
		HeartbeatMiss:     3,
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

// requireOutcomesEqual compares the deterministic portions of two
// outcomes: everything except the metrics snapshot's float-valued
// histogram sums (whose accumulation order is layout-defined). With
// latencySlack > 0, MeanLatency may differ by up to that much — used
// when comparing the two lane layouts, whose tie-break rules for
// same-instant events are different but equally valid, which can shift
// individual message timings by microseconds without changing what the
// fleet computes. Layout-to-layout comparisons therefore allow the
// slack; worker-count comparisons (same layout) must be exact.
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
	for _, c := range []string{
		"cache.hits", "cache.misses", "retry.timeouts", "retry.retransmits",
		"membership.heartbeats", "membership.evictions",
	} {
		if av, bv := a.Metrics.Counter(c), b.Metrics.Counter(c); av != bv {
			t.Errorf("%s: counter %s diverged: %d vs %d", label, c, av, bv)
		}
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
	seqOut := runEngine(t, 0, 0, false)
	kernOut := runEngine(t, 1, 0, false)
	requireOutcomesEqual(t, "sequential vs kernel-W1", seqOut, kernOut, time.Millisecond)
}

// TestClusterKernelWorkerCountInvariant pins the headline guarantee at
// the cluster layer: worker count cannot change the outcome in any
// measurable way — exact equality, no slack, on the most
// timing-sensitive configuration (gossip membership plus churn).
func TestClusterKernelWorkerCountInvariant(t *testing.T) {
	w1 := runEngine(t, 1, 3, true)
	for _, w := range []int{2, 8} {
		wN := runEngine(t, w, 3, true)
		requireOutcomesEqual(t, "kernel-W1 vs kernel-WN", w1, wN, 0)
	}
}
