// Command athena-sim regenerates the paper's evaluation (Section VII):
//
//	athena-sim -fig 2          # Figure 2: resolution ratio vs dynamics
//	athena-sim -fig 3          # Figure 3: bandwidth by scheme
//	athena-sim -fig a1         # Ablation: label sharing vs trust
//	athena-sim -fig a3         # Ablation: cache capacity
//	athena-sim -fig a4         # Ablation: infomax triage under overload
//	athena-sim -fig a5         # Ablation: sensor noise vs corroboration cost
//	athena-sim -fig a6         # Ablation: link loss with/without retries
//	athena-sim -fig a7         # Ablation: node churn with/without live membership
//	athena-sim -fig a8         # Ablation: membership control plane, flood vs gossip
//	athena-sim -fig a9         # Ablation: directory sharding, memory/sync vs full replica
//	athena-sim -fig a10        # Ablation: kernel throughput
//	athena-sim -fig a11        # Ablation: data-plane batching, frames/bytes vs latency
//	athena-sim -fig all        # everything above
//	athena-sim -fig misses     # where deadlines die: expired queries by cause
//	                           # (not part of all)
//	athena-sim -fig chaos      # seeded fault schedules on four fleets, fleet
//	                           # invariants checked; exits 1 on a violation
//	                           # (not part of all; -reps seeds from -seed,
//	                           # -faults runs a schedule prefix)
//	athena-sim -fig sweep      # order independence: each scenario in four
//	                           # same-instant orders beside the schedule
//	                           # order, decisions compared and differences
//	                           # classed; exits 1 on an unexplained one or
//	                           # a violation (not part of all; -reps seeds)
//
// Two CI-oriented scenarios sit outside the figure set:
//
//	athena-sim -fig dump       # fixed-seed gossip+churn cluster; prints
//	                           # the full outcome as deterministic JSON
//	                           # (byte-identical run to run and at any GOMAXPROCS);
//	                           # -shards N runs it on a sharded directory;
//	                           # -codec puts the wire codec in the loop,
//	                           # which must not change a byte
//	athena-sim -fig smoke      # n=2048 gossip+sharding membership fleet;
//	                           # prints the row as JSON
//
// Use -reps, -seed, -schemes and -quick to trade fidelity for time.
// Every run is one kernel in one order, (time, schedule sequence), so
// every output is a pure function of its flags.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"athena"
	iathena "athena/internal/athena"
	"athena/internal/experiment"
	"athena/internal/trace"
	"athena/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "athena-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig     = flag.String("fig", "all", "which figure to regenerate: 2, 3, a1, a3, a4, a5, a6, a7, a8, a9, a10, a11, all, misses, chaos, sweep, dump, smoke")
		reps    = flag.Int("reps", 10, "repetitions per data point")
		seed    = flag.Int64("seed", 1, "base random seed")
		schemes = flag.String("schemes", "cmp,slt,lcf,lvf,lvfl", "comma-separated schemes")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables (figures 2 and 3)")
		quick   = flag.Bool("quick", false, "smaller workload for a fast smoke run")
		batch   = flag.Duration("batch-window", 0, "data-plane coalescing window for the dump scenario (0 = batching off); CI diffs dump output with batching on and off")
		shards  = flag.Int("shards", 0, "directory shards for the dump scenario, three replicas each (0 = every node a full replica); CI diffs dump output at 0 and 96")
		codec   = flag.Bool("codec", false, "dump: deliver every frame through the wire codec (Decode(Encode(m))); CI diffs the output against the plain dump")
		faults  = flag.Int("faults", -1, "chaos: run only the first N faults of each schedule (-1 = all); a violation prints the N that replays it")
		traceTo = flag.String("trace", "", "dump: write every query's spans to this file as Chrome/Perfetto trace events, one track per node; the dump itself does not change")
	)
	flag.Parse()
	if *traceTo != "" && *fig != "dump" {
		return fmt.Errorf("-trace traces the dump scenario: use it with -fig dump, not -fig %s", *fig)
	}

	// The CI scenarios bypass the figure machinery entirely.
	switch *fig {
	case "dump":
		return runDump(*seed, *batch, *shards, *codec, *traceTo)
	case "smoke":
		return runSmoke(*seed, *quick)
	case "chaos":
		return runChaos(*seed, *reps, *faults)
	case "sweep":
		return runSweep(*seed, *reps)
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
		rows, err := experiment.AblationBatching(sizes)
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

// dumpCluster builds the dump scenario: a fixed-seed cluster — gossip
// membership, churn, the most timing-sensitive configuration — with
// data-plane batching at batchWindow (0 = off) and
// the directory in shards label shards (0 = a full replica on every
// node), the only configuration a recorded output issues sharded queries
// in. With codec set every frame goes through the wire codec; with rec set
// the run is traced into it.
func dumpCluster(seed int64, batchWindow time.Duration, shards int, codec bool, rec *trace.Recorder) (*athena.Cluster, error) {
	f := iathena.DumpFleet(batchWindow, shards)
	if codec {
		f.Cluster.Codec = wire.Codec{}
	}
	f.Cluster.Trace = rec
	wcfg := f.Workload
	wcfg.Seed = seed
	s, err := athena.GenerateScenario(wcfg)
	if err != nil {
		return nil, err
	}
	return athena.NewCluster(s, f.Cluster)
}

// runDump runs the dump scenario (dumpCluster) and prints the complete
// outcome as JSON. The output is byte-identical run to run and at any
// GOMAXPROCS; CI diffs it across both, with data-plane batching both off
// and on (-batch-window), on a full and a sharded directory (-shards), and
// against the same run with the codec in the loop (-codec). With traceTo
// set, the run is traced (internal/trace) and the spans written there.
func runDump(seed int64, batchWindow time.Duration, shards int, codec bool, traceTo string) error {
	var rec *trace.Recorder
	if traceTo != "" {
		rec = trace.New()
	}
	cluster, err := dumpCluster(seed, batchWindow, shards, codec, rec)
	if err != nil {
		return err
	}
	out, err := cluster.Run()
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(traceTo, rec, cluster.Scenario.Epoch); err != nil {
			return err
		}
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

// writeTrace writes rec's spans to path as Chrome trace events.
func writeTrace(path string, rec *trace.Recorder, epoch time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f, epoch); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChaos runs reps seeds from seed on each chaos fleet under its drawn
// fault schedule, one row per run. A run that violates a fleet invariant
// is shrunk to the shortest schedule prefix that still does, and printed
// with its faults, its violations and the command that replays it; the
// command then fails.
func runChaos(seed int64, reps, faults int) error {
	fleets := iathena.ChaosFleets()
	fmt.Printf("%-14s %5s %6s %8s %7s %6s %10s\n", "fleet", "seed", "issued", "resolved", "expired", "lost", "violations")
	var bad []iathena.ChaosReport
	for s := seed; s < seed+int64(reps); s++ {
		for _, f := range fleets {
			rep, err := iathena.RunChaos(f, s, faults)
			if err != nil {
				return err
			}
			fmt.Printf("%-14s %5d %6d %8d %7d %6d %10d\n", f.Name, s, rep.Issued, rep.Resolved, rep.Expired, rep.Lost, len(rep.Violations))
			if len(rep.Violations) > 0 {
				if rep, err = iathena.ShrinkChaos(f, rep); err != nil {
					return err
				}
				bad = append(bad, rep)
			}
		}
	}
	for _, rep := range bad {
		fmt.Printf("\n%s seed %d: shortest failing prefix %d faults\n", rep.Fleet, rep.Seed, len(rep.Schedule))
		for i, f := range rep.Schedule {
			fmt.Printf("  fault %d: %v\n", i+1, f)
		}
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
		fmt.Printf("  replay: %s\n", rep.ReplayCommand())
	}
	if len(bad) > 0 {
		return fmt.Errorf("chaos: %d runs violated a fleet invariant", len(bad))
	}
	return nil
}

// sweepPerms is how many same-instant orders -fig sweep runs beside the
// schedule order.
const sweepPerms = 4

// runSweep runs the order-independence sweep on reps scenario seeds from
// seed, each fleet's scenario in the schedule order and sweepPerms other
// same-instant orders, and prints each fleet's decisions by class, then
// every difference of class expiry or unexplained, every violation, and
// the origin's deliveries around the two earliest-finishing differences
// that are not timing alone (world, expiry, unexplained). It fails on an
// unexplained difference or a violation.
func runSweep(seed int64, reps int) error {
	fmt.Printf("%-16s %5s %5s %9s", "fleet", "seeds", "perms", "decisions")
	for c := iathena.SweepSame; c <= iathena.SweepUnexplained; c++ {
		fmt.Printf(" %11s", c)
	}
	fmt.Printf(" %10s\n", "violations")
	type found struct {
		fleet iathena.Fleet
		seed  int64
		diff  iathena.SweepDiff
	}
	var notable []found
	var violations []string
	bad := 0
	for _, f := range iathena.SweepFleets() {
		var classes [iathena.SweepUnexplained + 1]int
		total, viol := 0, 0
		for s := seed; s < seed+int64(reps); s++ {
			rep, err := iathena.RunSweep(f, s, sweepPerms)
			if err != nil {
				return err
			}
			for c, n := range rep.Classes {
				classes[c] += n
				total += n
			}
			for _, d := range rep.Diffs {
				if d.Class >= iathena.SweepWorld {
					notable = append(notable, found{f, s, d})
				}
			}
			for _, v := range rep.Violations {
				violations = append(violations, fmt.Sprintf("%s seed %d %s", f.Name, s, v))
			}
			viol += len(rep.Violations)
			bad += len(rep.Violations) + rep.Classes[iathena.SweepUnexplained]
		}
		fmt.Printf("%-16s %5d %5d %9d", f.Name, reps, sweepPerms, total)
		for _, n := range classes {
			fmt.Printf(" %11d", n)
		}
		fmt.Printf(" %10d\n", viol)
	}
	for _, n := range notable {
		if n.diff.Class >= iathena.SweepExpiry {
			fmt.Printf("\n%s seed %d order %d %s: %v\n  schedule order: %s\n  order %d:        %s\n",
				n.fleet.Name, n.seed, n.diff.Perm, n.diff.Query, n.diff.Class, n.diff.Base, n.diff.Perm, n.diff.Got)
		}
	}
	for _, v := range violations {
		fmt.Printf("\nviolation: %s\n", v)
	}
	slices.SortStableFunc(notable, func(a, b found) int { return cmp.Compare(a.diff.At, b.diff.At) })
	for _, n := range notable[:min(2, len(notable))] {
		common, base, got, err := iathena.SweepTraces(n.fleet, n.seed, n.diff)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s seed %d order %d %s (%v, finished at %v): %d deliveries to its origin alike, then\n",
			n.fleet.Name, n.seed, n.diff.Perm, n.diff.Query, n.diff.Class, n.diff.At, common)
		for i := 0; i < 6 && (i < len(base) || i < len(got)); i++ {
			fmt.Printf("  %-48s | %s\n", at(base, i), at(got, i))
		}
	}
	if bad > 0 {
		return fmt.Errorf("sweep: %d unexplained differences and violations", bad)
	}
	return nil
}

// at is lines[i], or "" past its end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// runSmoke runs the n=2048 gossip+sharding membership fleet and prints
// the measured row as JSON — the CI scale job's
// artifact. -quick trims the fleet to n=512 for local checks.
func runSmoke(seed int64, quick bool) error {
	n := 2048
	if quick {
		n = 512
	}
	//lint:allow walltime operator-facing elapsed-time report, not simulation state
	start := time.Now()
	row, err := experiment.RunMembershipOpts(n, experiment.MembershipOpts{
		Fanout: 2,
		Seed:   seed,
		Shards: 4 * n,
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
