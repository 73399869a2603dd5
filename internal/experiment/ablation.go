package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"athena/internal/athena"
	"athena/internal/infomax"
	"athena/internal/names"
	"athena/internal/workload"
)

// AblationRow is one aggregated row of an ablation table.
type AblationRow struct {
	// Label names the configuration (e.g. "trust=0.50").
	Label string
	// Ratio is the mean resolution ratio.
	Ratio float64
	// MeanMB is the mean total traffic in megabytes.
	MeanMB float64
	// MeanLatency is the mean decision latency.
	MeanLatency time.Duration
	// HitRatio is the mean fleet cache hit ratio from the per-run metrics
	// snapshots (approximate hits count as hits).
	HitRatio float64
	// Retries is the mean recovery-layer event count per run (request
	// timeouts plus retransmissions).
	Retries float64
	// Extra carries experiment-specific values (e.g. label answers).
	Extra float64
}

// RenderAblation prints rows as an aligned table.
func RenderAblation(title, extraHeader string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-20s%10s%14s%12s%11s%10s", "config", "ratio", "bandwidth(MB)", "latency(s)", "cache_hit", "retries")
	if extraHeader != "" {
		fmt.Fprintf(&b, "%14s", extraHeader)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s%10.3f%14.1f%12.2f%11.3f%10.1f", r.Label, r.Ratio, r.MeanMB, r.MeanLatency.Seconds(), r.HitRatio, r.Retries)
		if extraHeader != "" {
			fmt.Fprintf(&b, "%14.1f", r.Extra)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// aggregate runs cc on each repetition's scenario, on a bounded pool,
// and averages the outcomes into one row; extra, when not nil, fills the
// row's Extra column with its mean. Every row of an ablation passes the
// same scens (see scenarios): generated once, read by all.
func aggregate(cfg Config, scens []*workload.Scenario, cc athena.ClusterConfig, extra func(athena.Outcome) float64) (AblationRow, error) {
	outs, err := runAll(cfg, len(scens), func(r int) (*workload.Scenario, athena.ClusterConfig) {
		return scens[r], cc
	}, nil)
	if err != nil {
		return AblationRow{}, err
	}
	p := foldOutcomes(outs)
	row := AblationRow{Ratio: p.Ratio, MeanMB: p.MeanMB, MeanLatency: p.MeanLatency, HitRatio: p.HitRatio, Retries: p.Retries}
	if extra != nil {
		for _, out := range outs {
			row.Extra += extra(out)
		}
		row.Extra /= float64(len(outs))
	}
	return row, nil
}

// foldOutcomes averages repetition outcomes, in the order given, into one
// Point (scheme and dynamics left for the caller). Latency is weighted by
// each repetition's resolved-query count so repetitions that resolved
// nothing (and so report zero latency) do not dilute the mean.
func foldOutcomes(outs []athena.Outcome) Point {
	p := Point{RatioMin: 2, RatioMax: -1, Reps: len(outs)}
	var lat time.Duration
	resolved := 0
	for _, out := range outs {
		ratio := out.ResolutionRatio()
		p.Ratio += ratio
		p.RatioMin = min(p.RatioMin, ratio)
		p.RatioMax = max(p.RatioMax, ratio)
		p.MeanMB += float64(out.TotalBytes) / (1 << 20)
		p.HitRatio += out.CacheHitRatio()
		p.Retries += float64(out.RetryCount())
		lat += out.MeanLatency * time.Duration(out.QueriesResolved)
		resolved += out.QueriesResolved
	}
	n := float64(len(outs))
	p.Ratio /= n
	p.MeanMB /= n
	p.HitRatio /= n
	p.Retries /= n
	if resolved > 0 {
		p.MeanLatency = lat / time.Duration(resolved)
	}
	return p
}

// AblationLabelSharing (A1) sweeps the trusted-annotator fraction under
// lvfl and compares against plain lvf: label sharing's savings shrink as
// fewer annotators are trusted (Section VI-D's Alice/Bob example).
func AblationLabelSharing(cfg Config) ([]AblationRow, error) {
	scens, err := scenarios(cfg, cfg.Workload.FastRatio)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	labelAnswers := func(out athena.Outcome) float64 { return float64(out.Node.LabelAnswers) }
	row, err := aggregate(cfg, scens, athena.ClusterConfig{Scheme: athena.SchemeLVF, TrustFraction: 1}, labelAnswers)
	if err != nil {
		return nil, err
	}
	row.Label = "lvf (no share)"
	rows = append(rows, row)
	for _, trust := range []float64{0.25, 0.5, 0.75, 1.0} {
		row, err := aggregate(cfg, scens, athena.ClusterConfig{Scheme: athena.SchemeLVFL, TrustFraction: trust}, labelAnswers)
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("lvfl trust=%.2f", trust)
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationPrefetch (A2) compares lvf with and without background
// prefetching of announced query expressions.
func AblationPrefetch(cfg Config) ([]AblationRow, error) {
	scens, err := scenarios(cfg, cfg.Workload.FastRatio)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, enable := range []bool{false, true} {
		row, err := aggregate(cfg, scens, athena.ClusterConfig{Scheme: athena.SchemeLVF, EnablePrefetch: enable}, nil)
		if err != nil {
			return nil, err
		}
		if enable {
			row.Label = "prefetch on"
		} else {
			row.Label = "prefetch off"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationCache (A3) sweeps per-node content-store capacity under lvf.
func AblationCache(cfg Config) ([]AblationRow, error) {
	scens, err := scenarios(cfg, cfg.Workload.FastRatio)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	// A capacity of 1 byte fits nothing: effectively no caching. (The
	// cluster treats 0 as "use the default".)
	for _, capBytes := range []int64{-1, 16 << 20, 4 << 20, 1 << 20, 1} {
		row, err := aggregate(cfg, scens, athena.ClusterConfig{Scheme: athena.SchemeLVF, CacheBytes: capBytes}, nil)
		if err != nil {
			return nil, err
		}
		switch {
		case capBytes < 0:
			row.Label = "cache unbounded"
		case capBytes == 1:
			row.Label = "cache off"
		default:
			row.Label = fmt.Sprintf("cache %dMB", capBytes>>20)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationNoise (A5) sweeps the per-annotation sensor error rate under
// lvf with corroboration to 95% confidence (Section IV-B): noisier
// sensors force more corroborating evidence, raising cost and latency.
func AblationNoise(cfg Config) ([]AblationRow, error) {
	scens, err := scenarios(cfg, cfg.Workload.FastRatio)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, noise := range []float64{0, 0.1, 0.2, 0.3} {
		row, err := aggregate(cfg, scens, athena.ClusterConfig{Scheme: athena.SchemeLVF, SensorNoise: noise}, nil)
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("noise=%.2f", noise)
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationFailure (A6) injects per-message link loss (seeded, so every
// row is deterministic) and compares the recovery layer on vs off under
// the decision-driven schemes. With retries the resolution ratio degrades
// gracefully as loss climbs; without them a single lost request or data
// frame strands its query until the fixed request timeout, usually past
// the deadline. Extra is the mean retransmission count.
func AblationFailure(cfg Config) ([]AblationRow, error) {
	scens, err := scenarios(cfg, cfg.Workload.FastRatio)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, scheme := range []athena.Scheme{athena.SchemeLVF, athena.SchemeLVFL} {
		for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
			for _, retries := range []bool{true, false} {
				cc := athena.ClusterConfig{Scheme: scheme, LinkLoss: loss, DisableRetries: !retries}
				row, err := aggregate(cfg, scens, cc, func(out athena.Outcome) float64 {
					return float64(out.Node.Retransmits)
				})
				if err != nil {
					return nil, err
				}
				mode := "retry"
				if !retries {
					mode = "no-retry"
				}
				row.Label = fmt.Sprintf("%s p=%.1f %s", scheme, loss, mode)
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// AblationChurn (A7) sweeps node churn (deterministic seeded outages) and
// compares the live-membership layer — heartbeat eviction plus re-sourcing
// of in-flight fetches — against the static directory, which only has the
// slow retry-failover path. Eviction detects a dead source within
// miss*interval (~6s here) while pure retry failover needs the full
// backoff ladder (tens of seconds), so membership dominates on resolution
// ratio as churn climbs. The gossip rows run the same churn through the
// SWIM membership protocol (sampled probes, suspicion, piggybacked
// deltas): churn resolution must hold while the control plane shrinks
// (ablation A8 measures the shrinkage). Extra is the mean eviction count.
func AblationChurn(cfg Config) ([]AblationRow, error) {
	scens, err := scenarios(cfg, cfg.Workload.FastRatio)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, churn := range []int{0, 2, 4, 8} {
		for _, mode := range []string{"live", "gossip", "static"} {
			cc := athena.ClusterConfig{Scheme: athena.SchemeLVF, ChurnEvents: churn, ChurnOutage: 60 * time.Second}
			if mode != "static" {
				cc.HeartbeatInterval = 2 * time.Second
			}
			if mode == "gossip" {
				cc.GossipFanout = 2
			}
			row, err := aggregate(cfg, scens, cc, func(out athena.Outcome) float64 {
				return float64(out.Node.Evictions)
			})
			if err != nil {
				return nil, err
			}
			row.Label = fmt.Sprintf("churn=%d %s", churn, mode)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// InfomaxRow is one row of the A4 overload-triage experiment.
type InfomaxRow struct {
	// Label names the forwarding policy.
	Label string
	// Utility is the mean delivered sub-additive information utility.
	Utility float64
	// Items is the mean number of items delivered within budget.
	Items float64
}

// AblationInfomax (A4) models an overloaded bottleneck link: a backlog of
// named objects competes for a byte budget. FIFO forwarding delivers
// whatever arrived first; infomax triage (Section V-B) forwards by
// marginal utility per byte. Deterministic in the seed.
func AblationInfomax(seed int64, reps int) []InfomaxRow {
	if reps <= 0 {
		reps = 10
	}
	var fifoU, fifoN, greedyU, greedyN float64
	for r := 0; r < reps; r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)))
		// A disaster scene: many cameras per site, few sites; most
		// content is redundant.
		sites := []string{"/city/bridge", "/city/market", "/city/hospital", "/city/station"}
		items := make([]infomax.Item, 60)
		for i := range items {
			site := sites[rng.Intn(len(sites))]
			cam := fmt.Sprintf("cam%d", rng.Intn(4))
			shot := fmt.Sprintf("shot%d", rng.Intn(3))
			items[i] = infomax.Item{
				Name:        names.MustParse(site + "/" + cam + "/" + shot),
				Size:        int64(100_000 + rng.Intn(900_000)),
				BaseUtility: 1 + rng.Float64()*9,
			}
		}
		const budget = 5_000_000 // bottleneck can carry 5 MB before deadline

		// FIFO: deliver in arrival order until the budget runs out.
		var fifo []infomax.Item
		var used int64
		for _, it := range items {
			if used+it.Size > budget {
				continue
			}
			used += it.Size
			fifo = append(fifo, it)
		}
		fifoU += infomax.SetUtility(fifo)
		fifoN += float64(len(fifo))

		order := infomax.Greedy(items, budget)
		sel := make([]infomax.Item, len(order))
		for i, idx := range order {
			sel[i] = items[idx]
		}
		greedyU += infomax.SetUtility(sel)
		greedyN += float64(len(sel))
	}
	n := float64(reps)
	return []InfomaxRow{
		{Label: "fifo", Utility: fifoU / n, Items: fifoN / n},
		{Label: "infomax", Utility: greedyU / n, Items: greedyN / n},
	}
}

// RenderInfomax prints the A4 table.
func RenderInfomax(rows []InfomaxRow) string {
	var b strings.Builder
	b.WriteString("Ablation A4: delivered information utility under overload\n")
	fmt.Fprintf(&b, "%-10s%12s%10s\n", "policy", "utility", "items")
	sorted := append([]InfomaxRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })
	for _, r := range sorted {
		fmt.Fprintf(&b, "%-10s%12.2f%10.1f\n", r.Label, r.Utility, r.Items)
	}
	return b.String()
}
