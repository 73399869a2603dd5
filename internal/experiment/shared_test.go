package experiment

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"athena/internal/athena"
	"athena/internal/workload"
)

// scenarioHash digests everything a Scenario holds, the world's periods
// included (fmt prints maps in key order, so the digest is stable).
func scenarioHash(s *workload.Scenario) string {
	h := sha256.New()
	c := *s
	c.World = nil
	fmt.Fprintf(h, "%#v|%#v", c, *s.World)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// kernelFleetCluster is the kernel_fleet benchmark workload's cluster: a
// lane per node, SWIM gossip, a sharded directory, coalescing and churn.
var kernelFleetCluster = athena.ClusterConfig{
	Scheme:            athena.SchemeLVF,
	Workers:           2,
	HeartbeatInterval: 2 * time.Second,
	GossipFanout:      2,
	Shards:            400,
	ShardReplicas:     3,
	CoalesceWindow:    10 * time.Millisecond,
	ChurnEvents:       3,
	ChurnOutage:       10 * time.Second,
}

// A sweep hands one scenario to every scheme's run, concurrently, so a
// run must not write to it: not the descriptors' label slices, not the
// query expressions, not the metadata, source or period maps. Runs under
// every scheme and under the kernel_fleet configuration, on the Sec. VII
// scenario and on kernel_fleet's 81-node grid, must leave it hashing as
// it did.
func TestRunsLeaveScenarioUnchanged(t *testing.T) {
	sec7 := workload.DefaultConfig()
	fleet := workload.DefaultConfig()
	fleet.GridRows, fleet.GridCols, fleet.Nodes = 9, 9, 81
	fleet.LinkBandwidth = 1.25e6
	var sec7Clusters []athena.ClusterConfig
	for _, s := range athena.Schemes() {
		sec7Clusters = append(sec7Clusters, athena.ClusterConfig{Scheme: s})
	}
	sec7Clusters = append(sec7Clusters, kernelFleetCluster)
	for _, c := range []struct {
		name     string
		wcfg     workload.Config
		clusters []athena.ClusterConfig
	}{
		{"sec7", sec7, sec7Clusters},
		{"fleet81", fleet, []athena.ClusterConfig{kernelFleetCluster}},
	} {
		s, err := workload.Generate(c.wcfg)
		if err != nil {
			t.Fatal(err)
		}
		before := scenarioHash(s)
		for _, ccfg := range c.clusters {
			cluster, err := athena.NewCluster(s, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cluster.Run(); err != nil {
				t.Fatal(err)
			}
			if after := scenarioHash(s); after != before {
				t.Fatalf("%s: a %s run (workers %d, shards %d) changed the scenario", c.name, ccfg.Scheme, ccfg.Workers, ccfg.Shards)
			}
		}
	}
}

// A figure sweep runs all five schemes of a (dynamics, rep) on one shared
// Sec. VII scenario, side by side (Fig3 is the one-dynamics sweep). Under
// -race (ci.sh) this is the check that sharing is safe; everywhere it
// checks that it changes nothing: four workers agree with one, point for
// point.
func TestFig2SharedScenariosParallel(t *testing.T) {
	cfg := Default()
	cfg.Reps = 2
	cfg.parallelism = 4
	par, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.parallelism = 1
	seq, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("4 workers: %+v\n1 worker: %+v", par, seq)
	}
}
