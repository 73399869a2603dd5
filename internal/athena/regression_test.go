package athena

import (
	"testing"
	"time"

	"athena/internal/workload"
)

// runCoalesceScenario runs the pin scenario with the given coalescing
// window on the sequential reference scheduler.
func runCoalesceScenario(t *testing.T, window time.Duration) Outcome {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.GridRows, wcfg.GridCols = 5, 5
	wcfg.Nodes = 14
	wcfg.QueriesPerNode = 2
	wcfg.Seed = 7
	wcfg.FastRatio = 0.4
	s, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(s, ClusterConfig{
		Scheme:         SchemeLVF,
		CoalesceWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cluster.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUnbatchedUnchangedByBatchingLayer pins the acceptance contract of
// the coalescing layer: with CoalesceWindow zero the data plane is
// byte-for-byte the pre-batching node — the goldens below were recorded
// from the baseline this layer landed on (and recorded again at 67446491
// bytes before, when a forwarder's waiter started to lapse at its query's
// deadline, and at 67113985 before, when data that no waiter asked for
// stopped going on toward its query's origin), and any drift in them means
// the off path is no longer inert.
func TestUnbatchedUnchangedByBatchingLayer(t *testing.T) {
	const (
		goldenBytes    = int64(64955622)
		goldenIssued   = 24
		goldenResolved = 22
	)
	off := runCoalesceScenario(t, 0)
	if off.TotalBytes != goldenBytes {
		t.Errorf("unbatched TotalBytes = %d, golden %d: the off path is no longer byte-identical",
			off.TotalBytes, goldenBytes)
	}
	if off.QueriesIssued != goldenIssued || off.QueriesResolved != goldenResolved {
		t.Errorf("unbatched resolution = %d/%d, golden %d/%d",
			off.QueriesResolved, off.QueriesIssued, goldenResolved, goldenIssued)
	}
	if off.Node.BatchesSent != 0 || off.Node.BatchedMsgs != 0 || off.Node.BatchBytesSaved != 0 {
		t.Errorf("unbatched run shipped batches: %+v", off.Node)
	}
}

// TestBatchedMatchesUnbatchedDecisions runs the pin scenario with
// coalescing enabled and checks the contract from the other side: every
// query still resolves to the same decisions, batches actually ship, and
// the data plane crosses the network in fewer frames for fewer bytes.
func TestBatchedMatchesUnbatchedDecisions(t *testing.T) {
	off := runCoalesceScenario(t, 0)
	on := runCoalesceScenario(t, 10*time.Millisecond)
	if on.QueriesIssued != off.QueriesIssued || on.ResolvedTrue != off.ResolvedTrue ||
		on.ResolvedFalse != off.ResolvedFalse {
		t.Errorf("batched resolution diverged: %d issued (%d true, %d false) vs %d (%d, %d)",
			on.QueriesIssued, on.ResolvedTrue, on.ResolvedFalse,
			off.QueriesIssued, off.ResolvedTrue, off.ResolvedFalse)
	}
	if on.Node.BatchesSent == 0 {
		t.Error("batched run shipped no batch frames")
	}
	if on.Node.DataFrames >= off.Node.DataFrames {
		t.Errorf("batched run did not reduce data-plane frames: %d vs %d",
			on.Node.DataFrames, off.Node.DataFrames)
	}
	if on.TotalBytes >= off.TotalBytes {
		t.Errorf("batched run did not reduce bytes: %d vs %d", on.TotalBytes, off.TotalBytes)
	}
}
