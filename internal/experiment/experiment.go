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
	// Workload is the base scenario configuration (seed/dynamics fields
	// are overridden per run).
	Workload workload.Config

	// parallelism bounds concurrent simulations (0: NumCPU). Only
	// TestFig2SharedScenariosParallel sets it.
	parallelism int
}

// fig2Dynamics are Figure 2's fast-changing-object ratios.
var fig2Dynamics = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// Default returns the paper's Section VII experiment configuration.
func Default() Config {
	return Config{
		BaseSeed: 1,
		Reps:     10,
		Schemes:  athena.Schemes(),
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

// sweep runs Reps repetitions of every (scheme, dynamics) combination in
// parallel and folds each combination's repetitions into a Point. Each
// (dynamics, rep) scenario is generated once, and every scheme runs on
// that one read-only copy.
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
	// Run j is repetition j%Reps of point j/Reps, and point k is scheme
	// k%len(Schemes) at dynamics k/len(Schemes): a point's repetitions
	// are adjacent and in repetition order, as foldOutcomes sums them.
	reps, schemes := cfg.Reps, len(cfg.Schemes)
	outs, err := runAll(cfg, len(dynamics)*schemes*reps, func(j int) (*workload.Scenario, athena.ClusterConfig) {
		k := j / reps
		return scens[k/schemes*reps+j%reps], athena.ClusterConfig{Scheme: cfg.Schemes[k%schemes]}
	}, nil)
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, len(dynamics)*schemes)
	for k := 0; k < len(dynamics)*schemes; k++ {
		p := foldOutcomes(outs[k*reps : (k+1)*reps])
		p.Scheme, p.Dynamics = cfg.Schemes[k%schemes], dynamics[k/schemes]
		points = append(points, p)
	}
	sort.SliceStable(points, func(a, b int) bool {
		if points[a].Dynamics != points[b].Dynamics {
			return points[a].Dynamics < points[b].Dynamics
		}
		return points[a].Scheme < points[b].Scheme
	})
	return points, nil
}

// runAll runs, on the bounded pool, one cluster per job i in [0, n):
// job(i)'s configuration on job(i)'s scenario. Outcomes come back in job
// order; so does the error returned, the first in that order. A non-nil
// after reads job i's cluster once it has run, on the goroutine that ran
// it.
func runAll(cfg Config, n int, job func(i int) (*workload.Scenario, athena.ClusterConfig), after func(i int, c *athena.Cluster)) ([]athena.Outcome, error) {
	outs := make([]athena.Outcome, n)
	errs := make([]error, n)
	runPool(n, cfg.parallelism, func(i int) {
		s, cc := job(i)
		cluster, err := athena.NewCluster(s, cc)
		if err != nil {
			errs[i] = fmt.Errorf("experiment: cluster seed %d: %w", s.Config.Seed, err)
			return
		}
		outs[i], err = cluster.Run()
		if err != nil {
			errs[i] = fmt.Errorf("experiment: run seed %d scheme %s: %w", s.Config.Seed, cc.Scheme, err)
		} else if after != nil {
			after(i, cluster)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
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
	runPool(len(scens), cfg.parallelism, func(i int) {
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

// Fig2 regenerates Figure 2: resolution ratio per scheme across
// environment-dynamics levels.
func Fig2(cfg Config) ([]Point, error) {
	return sweep(cfg, fig2Dynamics)
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
			cell := fmt.Sprintf("%10s", "-")
			for _, p := range points {
				if p.Scheme == s && p.Dynamics == d {
					cell = fmt.Sprintf("%10.3f", p.Ratio)
				}
			}
			b.WriteString(cell)
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
