// Command athena-sim regenerates the paper's evaluation (Section VII):
//
//	athena-sim -fig 2          # Figure 2: resolution ratio vs dynamics
//	athena-sim -fig 3          # Figure 3: bandwidth by scheme
//	athena-sim -fig a1         # Ablation: label sharing vs trust
//	athena-sim -fig a2         # Ablation: prefetch on/off
//	athena-sim -fig a3         # Ablation: cache capacity
//	athena-sim -fig a4         # Ablation: infomax triage under overload
//	athena-sim -fig a5         # Ablation: sensor noise vs corroboration cost
//	athena-sim -fig a6         # Ablation: link loss with/without retries
//	athena-sim -fig a7         # Ablation: node churn with/without live membership
//	athena-sim -fig a8         # Ablation: membership control plane, flood vs gossip
//	athena-sim -fig a9         # Ablation: directory sharding, memory/sync vs full replica
//	athena-sim -fig a10        # Ablation: lane-per-node kernel throughput
//	athena-sim -fig a11        # Ablation: data-plane batching, frames/bytes vs latency
//	athena-sim -fig all        # everything above
//	athena-sim -fig misses     # where deadlines die: expired queries by cause
//	                           # (not part of all)
//
// Two CI-oriented scenarios sit outside the figure set:
//
//	athena-sim -fig dump       # fixed-seed cluster, a kernel lane per node;
//	                           # prints the full outcome as deterministic JSON
//	                           # (byte-identical run to run and at any GOMAXPROCS);
//	                           # -shards N runs it on a sharded directory
//	athena-sim -fig smoke      # n=2048 gossip+sharding membership fleet, a
//	                           # lane per node; prints the row as JSON
//
// Use -reps, -seed, -schemes and -quick to trade fidelity for time.
// a10, a11, dump and smoke run a kernel lane per node; the classic
// figures always run every node on one shared lane, in global schedule
// order, so their published numbers stay byte-identical across releases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"athena"
	"athena/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "athena-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig     = flag.String("fig", "all", "which figure to regenerate: 2, 3, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, all, misses, dump, smoke")
		reps    = flag.Int("reps", 10, "repetitions per data point")
		seed    = flag.Int64("seed", 1, "base random seed")
		schemes = flag.String("schemes", "cmp,slt,lcf,lvf,lvfl", "comma-separated schemes")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables (figures 2 and 3)")
		quick   = flag.Bool("quick", false, "smaller workload for a fast smoke run")
		batch   = flag.Duration("batch-window", 0, "data-plane coalescing window for the dump scenario (0 = batching off); CI diffs dump output with batching on and off")
		shards  = flag.Int("shards", 0, "directory shards for the dump scenario, three replicas each (0 = every node a full replica); CI diffs dump output at 0 and 96")
	)
	flag.Parse()

	// The CI scenarios bypass the figure machinery entirely.
	switch *fig {
	case "dump":
		return runDump(*seed, *batch, *shards)
	case "smoke":
		return runSmoke(*seed, *quick)
	}

	cfg := experiment.Default()
	cfg.BaseSeed = *seed
	cfg.Reps = *reps
	cfg.Schemes = nil
	for _, s := range strings.Split(*schemes, ",") {
		scheme, err := athena.ParseScheme(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		cfg.Schemes = append(cfg.Schemes, scheme)
	}
	if *quick {
		cfg.Reps = min(cfg.Reps, 3)
		cfg.Workload.GridRows, cfg.Workload.GridCols = 5, 5
		cfg.Workload.Nodes = 14
		cfg.Workload.QueriesPerNode = 2
	}

	want := func(name string) bool { return *fig == name || *fig == "all" }
	//lint:allow walltime operator-facing elapsed-time report, not simulation state
	start := time.Now()

	if want("2") {
		points, err := experiment.Fig2(cfg)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(experiment.CSV(points))
		} else {
			fmt.Print(experiment.RenderFig2(points))
		}
		fmt.Println()
	}
	if want("3") {
		points, err := experiment.Fig3(cfg)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(experiment.CSV(points))
		} else {
			fmt.Print(experiment.RenderFig3(points))
		}
		fmt.Println()
	}
	if want("a1") {
		rows, err := experiment.AblationLabelSharing(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderAblation(
			"Ablation A1: label sharing vs trusted-annotator fraction (40% fast)",
			"label answers", rows))
		fmt.Println()
	}
	if want("a2") {
		rows, err := experiment.AblationPrefetch(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderAblation(
			"Ablation A2: prefetch on/off under lvf (40% fast)", "", rows))
		fmt.Println()
	}
	if want("a3") {
		rows, err := experiment.AblationCache(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderAblation(
			"Ablation A3: content-store capacity under lvf (40% fast)", "", rows))
		fmt.Println()
	}
	if want("a4") {
		fmt.Print(experiment.RenderInfomax(experiment.AblationInfomax(cfg.BaseSeed, cfg.Reps)))
		fmt.Println()
	}
	if want("a5") {
		rows, err := experiment.AblationNoise(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderAblation(
			"Ablation A5: sensor noise with 95% corroboration under lvf (40% fast)",
			"", rows))
		fmt.Println()
	}
	if want("a6") {
		rows, err := experiment.AblationFailure(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderAblation(
			"Ablation A6: link loss with/without the retry layer (40% fast)",
			"retransmits", rows))
		fmt.Println()
	}
	if want("a7") {
		rows, err := experiment.AblationChurn(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderAblation(
			"Ablation A7: node churn with live membership vs static directory (lvf, 40% fast)",
			"evictions", rows))
		fmt.Println()
	}
	if want("a8") {
		// The flood protocol's per-interval cost is O(n²) messages, so the
		// n=512 cell dominates the small-n sweep's runtime; -quick drops it
		// along with the n=2048 gossip+sharding scale row that the full
		// (nil-sizes) sweep appends.
		var sizes []int
		if *quick {
			sizes = []int{8, 32, 128}
		}
		rows, err := experiment.AblationMembership(cfg, sizes)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderMembership(rows))
		fmt.Println()
	}
	if want("a9") {
		// The structural rig is cheap; -quick trims only the 10^5 cells.
		sources := []int{1_000, 10_000, 100_000}
		if *quick {
			sources = []int{1_000, 10_000}
		}
		rows, err := experiment.AblationShardScale(sources, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderShardScale(rows))
		fmt.Println()
	}
	if want("a10") {
		sizes := []int{512, 2048, 10240}
		if *quick {
			sizes = []int{512}
		}
		rows, err := experiment.AblationKernelScale(sizes, cfg.BaseSeed)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderKernelScale(rows))
		fmt.Println()
	}
	if want("a11") {
		sizes := []int{64, 512, 2048}
		if *quick {
			sizes = []int{64}
		}
		rows, err := experiment.AblationBatching(cfg.BaseSeed, sizes)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderBatching(rows))
		fmt.Println()
	}
	// The misses table is asked for by name only, so -fig all (and
	// results_full.txt) print what they did before it existed.
	if *fig == "misses" {
		rows, err := experiment.Misses(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderMisses(rows))
		fmt.Println()
	}
	//lint:allow walltime operator-facing elapsed-time report, not simulation state
	fmt.Fprintf(os.Stderr, "athena-sim: done in %v\n", time.Since(start).Round(time.Second))
	return nil
}

// dumpHistogram is a histogram snapshot without the float running sum.
// Bucket counts are integers and accumulate commutatively; the sum is a
// float reduced in execution order, whose ulp-level wobble would break
// byte-for-byte diffs.
type dumpHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
}

// dumpOutcome is the full outcome of a dump run in a shape whose JSON
// encoding is deterministic: fixed field order, map keys sorted by
// encoding/json, no order-sensitive floats.
type dumpOutcome struct {
	Scheme          string                   `json:"scheme"`
	Seed            int64                    `json:"seed"`
	QueriesIssued   int                      `json:"queriesIssued"`
	QueriesResolved int                      `json:"queriesResolved"`
	ResolvedTrue    int                      `json:"resolvedTrue"`
	ResolvedFalse   int                      `json:"resolvedFalse"`
	TotalBytes      int64                    `json:"totalBytes"`
	MeanLatencyNS   int64                    `json:"meanLatencyNs"`
	Node            athena.NodeStats         `json:"node"`
	Counters        map[string]int64         `json:"counters"`
	Gauges          map[string]int64         `json:"gauges"`
	Histograms      map[string]dumpHistogram `json:"histograms"`
}

// dumpCluster builds the dump scenario: a fixed-seed cluster, a kernel lane
// per node — gossip membership, churn, the most timing-sensitive
// configuration — with data-plane batching at batchWindow (0 = off) and
// the directory in shards name-prefix shards (0 = a full replica on every
// node), the only configuration a recorded output issues sharded queries
// in.
func dumpCluster(seed int64, batchWindow time.Duration, shards int) (*athena.Cluster, error) {
	wcfg := athena.DefaultWorkload()
	wcfg.GridRows, wcfg.GridCols = 6, 6
	wcfg.Nodes = 24
	wcfg.QueriesPerNode = 3
	wcfg.Seed = seed
	wcfg.FastRatio = 0.4
	s, err := athena.GenerateScenario(wcfg)
	if err != nil {
		return nil, err
	}
	return athena.NewCluster(s, athena.ClusterConfig{
		Scheme:            athena.SchemeLVF,
		Workers:           1, // a lane per node
		HeartbeatInterval: 2 * time.Second,
		GossipFanout:      2,
		Shards:            shards,
		ChurnEvents:       3,
		ChurnOutage:       30 * time.Second,
		CoalesceWindow:    batchWindow,
	})
}

// runDump runs the dump scenario (dumpCluster) and prints the complete
// outcome as JSON. The output is byte-identical run to run and at any
// GOMAXPROCS; CI diffs it across both, with data-plane batching both off
// and on (-batch-window) and on a full and a sharded directory (-shards).
func runDump(seed int64, batchWindow time.Duration, shards int) error {
	cluster, err := dumpCluster(seed, batchWindow, shards)
	if err != nil {
		return err
	}
	out, err := cluster.Run()
	if err != nil {
		return err
	}
	dump := dumpOutcome{
		Scheme:          out.Scheme.String(),
		Seed:            seed,
		QueriesIssued:   out.QueriesIssued,
		QueriesResolved: out.QueriesResolved,
		ResolvedTrue:    out.ResolvedTrue,
		ResolvedFalse:   out.ResolvedFalse,
		TotalBytes:      out.TotalBytes,
		MeanLatencyNS:   int64(out.MeanLatency),
		Node:            out.Node,
		Counters:        out.Metrics.Counters,
		Gauges:          out.Metrics.Gauges,
		Histograms:      make(map[string]dumpHistogram, len(out.Metrics.Histograms)),
	}
	for name, h := range out.Metrics.Histograms {
		dump.Histograms[name] = dumpHistogram{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// runSmoke runs the n=2048 gossip+sharding membership fleet, a kernel
// lane per node, and prints the measured row as JSON — the CI scale job's
// artifact. -quick trims the fleet to n=512 for local checks.
func runSmoke(seed int64, quick bool) error {
	n := 2048
	if quick {
		n = 512
	}
	//lint:allow walltime operator-facing elapsed-time report, not simulation state
	start := time.Now()
	row, err := experiment.RunMembershipOpts(n, experiment.MembershipOpts{
		Fanout:      2,
		Seed:        seed,
		LanePerNode: true,
		Shards:      4 * n,
	})
	if err != nil {
		return err
	}
	out := struct {
		Nodes            int     `json:"nodes"`
		Seed             int64   `json:"seed"`
		CtlMsgsPerNode   float64 `json:"ctlMsgsPerNodePerInterval"`
		CtlBytesPerNode  float64 `json:"ctlBytesPerNodePerInterval"`
		DetectionSeconds float64 `json:"detectionSeconds"`
		FalseDrops       float64 `json:"falseDrops"`
		WallSeconds      float64 `json:"wallSeconds"`
	}{
		Nodes:            row.Nodes,
		Seed:             seed,
		CtlMsgsPerNode:   row.CtlMsgs,
		CtlBytesPerNode:  row.CtlBytes,
		DetectionSeconds: row.Detection.Seconds(),
		FalseDrops:       row.FalseDrops,
		//lint:allow walltime operator-facing elapsed-time report, not simulation state
		WallSeconds: time.Since(start).Seconds(),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
