// Package experiment regenerates the paper's evaluation (Section VII):
// Figure 2 (query resolution ratio vs. environment dynamics) and Figure 3
// (total network bandwidth by retrieval scheme), plus the ablations called
// out in DESIGN.md. Runs are deterministic in their seeds and repetitions
// execute in parallel, each in its own simulator.
package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"athena/internal/athena"
	"athena/internal/workload"
)

// Config parameterizes an experiment family.
type Config struct {
	// BaseSeed seeds repetition r with BaseSeed + r.
	BaseSeed int64
	// Reps is the number of randomized repetitions per data point
	// (paper: 10).
	Reps int
	// Schemes to evaluate (default: all five).
	Schemes []athena.Scheme
	// Dynamics are the fast-changing-object ratios for Figure 2.
	Dynamics []float64
	// Workload is the base scenario configuration (seed/dynamics fields
	// are overridden per run).
	Workload workload.Config
	// Cluster is the base cluster configuration (scheme overridden per
	// run).
	Cluster athena.ClusterConfig
	// Parallelism bounds concurrent simulations (default: NumCPU).
	Parallelism int
}

// Default returns the paper's Section VII experiment configuration.
func Default() Config {
	return Config{
		BaseSeed: 1,
		Reps:     10,
		Schemes:  athena.Schemes(),
		Dynamics: []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		Workload: workload.DefaultConfig(),
	}
}

// Point is one aggregated data point.
type Point struct {
	// Scheme identifies the retrieval scheme.
	Scheme athena.Scheme
	// Dynamics is the fast-changing-object ratio.
	Dynamics float64
	// Ratio is the mean query resolution ratio across repetitions.
	Ratio float64
	// RatioMin and RatioMax bound the per-repetition ratios.
	RatioMin, RatioMax float64
	// MeanMB is the mean total network traffic in megabytes.
	MeanMB float64
	// MeanLatency is the mean decision latency of resolved queries.
	MeanLatency time.Duration
	// HitRatio is the mean fleet cache hit ratio (approximate hits count
	// as hits), from the per-run metrics registry snapshots.
	HitRatio float64
	// Retries is the mean recovery-layer event count per run (request
	// timeouts plus retransmissions).
	Retries float64
	// Reps is the number of repetitions aggregated.
	Reps int
}

type runKey struct {
	scheme   athena.Scheme
	dynamics float64
}

type runResult struct {
	key     runKey
	outcome athena.Outcome
	err     error
}

// sweep runs Reps repetitions of every (scheme, dynamics) combination in
// parallel and aggregates. Each (dynamics, rep) scenario is generated
// once, and every scheme runs on that one read-only copy.
func sweep(cfg Config, dynamics []float64) ([]Point, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 10
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = athena.Schemes()
	}

	scens, err := scenarios(cfg, dynamics...)
	if err != nil {
		return nil, err
	}
	type job struct {
		key      runKey
		scenario *workload.Scenario
	}
	var jobs []job
	for i, d := range dynamics {
		for _, s := range cfg.Schemes {
			for r := 0; r < cfg.Reps; r++ {
				jobs = append(jobs, job{key: runKey{scheme: s, dynamics: d}, scenario: scens[i*cfg.Reps+r]})
			}
		}
	}

	results := make([]runResult, len(jobs))
	runPool(len(jobs), cfg.Parallelism, func(i int) {
		results[i] = runOne(cfg, jobs[i].key, jobs[i].scenario)
	})
	return aggregatePoints(results)
}

// scenarios generates, in one pass on the bounded pool, the cfg.Reps
// repetitions of cfg.Workload at each fast ratio: element i*cfg.Reps + r
// is repetition r (seed cfg.BaseSeed + r) at fast[i]. A scenario is
// never written after it is built, so every run handed it reads the
// same one, concurrently or not.
func scenarios(cfg Config, fast ...float64) ([]*workload.Scenario, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 10
	}
	scens := make([]*workload.Scenario, len(fast)*cfg.Reps)
	errs := make([]error, len(scens))
	runPool(len(scens), cfg.Parallelism, func(i int) {
		wcfg := cfg.Workload
		wcfg.FastRatio = fast[i/cfg.Reps]
		wcfg.Seed = cfg.BaseSeed + int64(i%cfg.Reps)
		scens[i], errs[i] = workload.Generate(wcfg)
		if errs[i] != nil {
			errs[i] = fmt.Errorf("experiment: generate seed %d: %w", wcfg.Seed, errs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scens, nil
}

// aggregatePoints folds per-repetition outcomes into one Point per
// (scheme, dynamics) key. Latency is weighted by each repetition's
// resolved-query count: a repetition that resolved nothing carries no
// latency evidence and must not drag the mean toward zero.
func aggregatePoints(results []runResult) ([]Point, error) {
	agg := make(map[runKey]*Point)
	latencySums := make(map[runKey]time.Duration)
	resolved := make(map[runKey]int)
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		p := agg[r.key]
		if p == nil {
			p = &Point{
				Scheme:   r.key.scheme,
				Dynamics: r.key.dynamics,
				RatioMin: 2,
				RatioMax: -1,
			}
			agg[r.key] = p
		}
		ratio := r.outcome.ResolutionRatio()
		p.Ratio += ratio
		if ratio < p.RatioMin {
			p.RatioMin = ratio
		}
		if ratio > p.RatioMax {
			p.RatioMax = ratio
		}
		p.MeanMB += float64(r.outcome.TotalBytes) / (1 << 20)
		p.HitRatio += r.outcome.CacheHitRatio()
		p.Retries += float64(r.outcome.RetryCount())
		latencySums[r.key] += r.outcome.MeanLatency * time.Duration(r.outcome.QueriesResolved)
		resolved[r.key] += r.outcome.QueriesResolved
		p.Reps++
	}
	var points []Point
	for k, p := range agg {
		p.Ratio /= float64(p.Reps)
		p.MeanMB /= float64(p.Reps)
		p.HitRatio /= float64(p.Reps)
		p.Retries /= float64(p.Reps)
		if n := resolved[k]; n > 0 {
			p.MeanLatency = latencySums[k] / time.Duration(n)
		}
		points = append(points, *p)
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].Dynamics != points[b].Dynamics {
			return points[a].Dynamics < points[b].Dynamics
		}
		return points[a].Scheme < points[b].Scheme
	})
	return points, nil
}

func runOne(cfg Config, key runKey, scenario *workload.Scenario) runResult {
	seed := scenario.Config.Seed
	ccfg := cfg.Cluster
	ccfg.Scheme = key.scheme
	cluster, err := athena.NewCluster(scenario, ccfg)
	if err != nil {
		return runResult{key: key, err: fmt.Errorf("experiment: cluster seed %d: %w", seed, err)}
	}
	out, err := cluster.Run()
	if err != nil {
		return runResult{key: key, err: fmt.Errorf("experiment: run seed %d scheme %s: %w", seed, key.scheme, err)}
	}
	return runResult{key: key, outcome: out}
}

// Fig2 regenerates Figure 2: resolution ratio per scheme across
// environment-dynamics levels.
func Fig2(cfg Config) ([]Point, error) {
	dynamics := cfg.Dynamics
	if len(dynamics) == 0 {
		dynamics = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	}
	return sweep(cfg, dynamics)
}

// Fig3 regenerates Figure 3: total bandwidth per scheme at 40%
// fast-changing objects.
func Fig3(cfg Config) ([]Point, error) {
	return sweep(cfg, []float64{0.4})
}

// RenderFig2 prints the Figure 2 series as an aligned table: one row per
// dynamics level, one column per scheme.
func RenderFig2(points []Point) string {
	schemes, dynamics := axes(points)
	byKey := index(points)

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: query resolution ratio vs environment dynamics\n")
	fmt.Fprintf(&b, "%-10s", "dynamics")
	for _, s := range schemes {
		fmt.Fprintf(&b, "%10s", s)
	}
	b.WriteByte('\n')
	for _, d := range dynamics {
		fmt.Fprintf(&b, "%-10.2f", d)
		for _, s := range schemes {
			if p, ok := byKey[runKey{scheme: s, dynamics: d}]; ok {
				fmt.Fprintf(&b, "%10.3f", p.Ratio)
			} else {
				fmt.Fprintf(&b, "%10s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFig3 prints the Figure 3 bars: total bandwidth per scheme.
func RenderFig3(points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: total network bandwidth (40%% fast-changing objects)\n")
	fmt.Fprintf(&b, "%-8s%14s%12s%11s%10s\n", "scheme", "bandwidth(MB)", "resolution", "cache_hit", "retries")
	for _, s := range athena.Schemes() {
		for _, p := range points {
			if p.Scheme == s {
				fmt.Fprintf(&b, "%-8s%14.1f%12.3f%11.3f%10.1f\n", s, p.MeanMB, p.Ratio, p.HitRatio, p.Retries)
			}
		}
	}
	return b.String()
}

// CSV renders points as comma-separated values with a header.
func CSV(points []Point) string {
	var b strings.Builder
	b.WriteString("scheme,dynamics,ratio,ratio_min,ratio_max,mean_mb,mean_latency_s,cache_hit,retries,reps\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.2f,%.4f,%.4f,%.4f,%.2f,%.3f,%.4f,%.1f,%d\n",
			p.Scheme, p.Dynamics, p.Ratio, p.RatioMin, p.RatioMax, p.MeanMB,
			p.MeanLatency.Seconds(), p.HitRatio, p.Retries, p.Reps)
	}
	return b.String()
}

func axes(points []Point) ([]athena.Scheme, []float64) {
	schemeSet := make(map[athena.Scheme]bool)
	dynSet := make(map[float64]bool)
	for _, p := range points {
		schemeSet[p.Scheme] = true
		dynSet[p.Dynamics] = true
	}
	var schemes []athena.Scheme
	for _, s := range athena.Schemes() {
		if schemeSet[s] {
			schemes = append(schemes, s)
		}
	}
	var dynamics []float64
	for d := range dynSet {
		dynamics = append(dynamics, d)
	}
	sort.Float64s(dynamics)
	return schemes, dynamics
}

func index(points []Point) map[runKey]Point {
	m := make(map[runKey]Point, len(points))
	for _, p := range points {
		m[runKey{scheme: p.Scheme, dynamics: p.Dynamics}] = p
	}
	return m
}
