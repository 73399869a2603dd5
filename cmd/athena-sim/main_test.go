package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"athena"
	iathena "athena/internal/athena"
	"athena/internal/wire"
)

// The dump scenario leaves a quiescent fleet on a full and on a sharded
// directory, at three seeds: run on a minute past the end of the run —
// past the interest-table TTL and a retry window — every node passes the
// fleet invariant checker.
func TestDumpQuiescent(t *testing.T) {
	for _, shards := range []int{0, 96} {
		for seed := int64(1); seed <= 3; seed++ {
			c, err := dumpCluster(seed, 0, shards, false)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if shards > 0 && out.Node.ShardLookups == 0 {
				t.Errorf("shards=%d seed %d: no routed lookup", shards, seed)
			}
			if err := c.Network.RunUntil(c.Network.Now().Add(time.Minute), 50_000_000); err != nil {
				t.Fatal(err)
			}
			if v := iathena.Quiescent(c.Nodes); len(v) > 0 {
				t.Errorf("shards=%d seed %d:\n%s", shards, seed, strings.Join(v, "\n"))
			}
		}
	}
}

var codecSeeds = flag.Int("codec-seeds", 2, "TestCodecInLoopMatchesPlain: kernel_fleet seeds 1..N (Sec. VII: min(N, 5))")

// With the wire codec in the simulator's loop every receiver gets
// Decode(Encode(m)) instead of the sender's struct. Every outcome must be
// byte-identical to the plain run's: a difference is a field the codec
// drops, or a slice a sender and its receiver share and one of them
// writes. The fleets are the dump's four, kernel_fleet and Sec. VII under
// lvfl and cmp; -codec-seeds 20 runs the seeds the codec was checked on.
func TestCodecInLoopMatchesPlain(t *testing.T) {
	type run struct {
		f     iathena.Fleet
		seeds int
	}
	runs := []run{{iathena.SweepFleets()[0], *codecSeeds}}
	for _, f := range iathena.SweepFleets()[1:] {
		runs = append(runs, run{f, 1})
	}
	for _, f := range iathena.ChaosFleets()[:2] {
		runs = append(runs, run{f, min(*codecSeeds, 5)})
	}
	if testing.Short() {
		runs = runs[1:2]
	}
	for _, r := range runs {
		for seed := int64(1); seed <= int64(r.seeds); seed++ {
			plain := fleetOutcome(t, r.f, seed)
			r.f.Cluster.Codec = wire.Codec{}
			coded := fleetOutcome(t, r.f, seed)
			r.f.Cluster.Codec = nil
			if plain != coded {
				t.Errorf("%s seed %d: the codec in the loop changed the outcome\nplain: %s\ncodec: %s",
					r.f.Name, seed, plain, coded)
			}
		}
	}
}

// fleetOutcome runs f on seed's scenario and renders everything the run
// decided and counted: the outcome, the network's counters, the events
// run, and each node's counters and results.
func fleetOutcome(t *testing.T, f iathena.Fleet, seed int64) string {
	t.Helper()
	wcfg := f.Workload
	wcfg.Seed = seed
	s, err := athena.GenerateScenario(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := athena.NewCluster(s, f.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%+v\nevents %d\n", out, c.Network.Stats(), c.Kernel.Executed())
	ids := make([]string, 0, len(c.Nodes))
	for id := range c.Nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		n := c.Nodes[id]
		fmt.Fprintf(&b, "%s %+v %+v\n", id, n.Stats(), n.Results())
	}
	return b.String()
}
