package athena_test

// Benchmark harness: one benchmark per paper figure/table plus the
// ablations of DESIGN.md. Each iteration runs a complete (reduced-scale)
// deterministic simulation; reported MB/op-style metrics come from custom
// b.ReportMetric calls:
//
//	resolution       - query resolution ratio (Figure 2's y-axis)
//	MB               - total network traffic (Figure 3's y-axis)
//	frames/decision  - frames of every kind put on a link, per query issued
//
// Full-scale regeneration (Section VII parameters, 10 repetitions) is
// done by `go run ./cmd/athena-sim -fig all`.

import (
	"testing"
	"time"

	"athena"
	"athena/internal/experiment"
)

// benchWorkload is a reduced Section VII scenario sized so one simulation
// runs in well under a second.
func benchWorkload() athena.WorkloadConfig {
	cfg := athena.DefaultWorkload()
	cfg.GridRows, cfg.GridCols = 5, 5
	cfg.Nodes = 14
	cfg.QueriesPerNode = 2
	return cfg
}

func runScheme(b *testing.B, scheme athena.Scheme, dynamics float64) {
	b.Helper()
	runSchemeCluster(b, athena.ClusterConfig{Scheme: scheme}, dynamics)
}

func runSchemeCluster(b *testing.B, ccfg athena.ClusterConfig, dynamics float64) {
	b.Helper()
	cfg := benchWorkload()
	cfg.FastRatio = dynamics
	var ratio float64
	var bytes, frames, issued int64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		s, err := athena.GenerateScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cluster, err := athena.NewCluster(s, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		out, err := cluster.Run()
		if err != nil {
			b.Fatal(err)
		}
		ratio += out.ResolutionRatio()
		bytes += out.TotalBytes
		frames += cluster.Network.Stats().MessagesSent
		issued += int64(out.QueriesIssued)
	}
	b.ReportMetric(ratio/float64(b.N), "resolution")
	b.ReportMetric(float64(bytes)/float64(b.N)/1e6, "MB")
	b.ReportMetric(float64(frames)/float64(issued), "frames/decision")
}

// BenchmarkScheme runs one reduced-scale simulation per scheme. This is
// the family the BENCH_core.json baseline tracks for hot-path regressions.
func BenchmarkScheme(b *testing.B) {
	for _, scheme := range athena.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			runScheme(b, scheme, 0.4)
		})
	}
}

// BenchmarkFig2 regenerates Figure 2's series: resolution ratio per scheme
// at each environment-dynamics level.
func BenchmarkFig2(b *testing.B) {
	for _, scheme := range athena.Schemes() {
		for _, dynamics := range []float64{0, 0.4, 0.8} {
			b.Run(scheme.String()+"/dynamics="+fmtDyn(dynamics), func(b *testing.B) {
				runScheme(b, scheme, dynamics)
			})
		}
	}
}

// BenchmarkFig3 regenerates Figure 3's bars: total bandwidth per scheme at
// 40% fast-changing objects.
func BenchmarkFig3(b *testing.B) {
	for _, scheme := range athena.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			runScheme(b, scheme, 0.4)
		})
	}
}

// BenchmarkAblationLabelSharing (A1) measures lvfl under full trust vs
// lvf, the label-sharing headline.
func BenchmarkAblationLabelSharing(b *testing.B) {
	for _, scheme := range []athena.Scheme{athena.SchemeLVF, athena.SchemeLVFL} {
		b.Run(scheme.String(), func(b *testing.B) {
			runScheme(b, scheme, 0.4)
		})
	}
}

// BenchmarkAblationPrefetch (A2) measures lvf with prefetch pushes off
// and on. No workload of the repo benchmark (bench/) runs prefetch on, so
// the on variant's frames/decision, gated in ci.sh, is the one mechanical
// hold on how far an announce is flooded (prefetchHops).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, enable := range []bool{false, true} {
		name := "off"
		if enable {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			runSchemeCluster(b, athena.ClusterConfig{Scheme: athena.SchemeLVF, EnablePrefetch: enable}, 0.4)
		})
	}
}

// BenchmarkAblationCache (A3) measures lvf across content-store sizes.
func BenchmarkAblationCache(b *testing.B) {
	for _, tc := range []struct {
		name string
		cap  int64
	}{
		{"unbounded", -1},
		{"4MB", 4 << 20},
		{"off", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchWorkload()
			cfg.FastRatio = 0.4
			var bytes int64
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				s, err := athena.GenerateScenario(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cluster, err := athena.NewCluster(s, athena.ClusterConfig{
					Scheme:     athena.SchemeLVF,
					CacheBytes: tc.cap,
				})
				if err != nil {
					b.Fatal(err)
				}
				out, err := cluster.Run()
				if err != nil {
					b.Fatal(err)
				}
				bytes += out.TotalBytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N)/1e6, "MB")
		})
	}
}

// BenchmarkAblationInfomax (A4) measures the overload-triage utilities.
func BenchmarkAblationInfomax(b *testing.B) {
	var fifo, info float64
	for i := 0; i < b.N; i++ {
		rows := experiment.AblationInfomax(int64(i+1), 3)
		for _, r := range rows {
			switch r.Label {
			case "fifo":
				fifo += r.Utility
			case "infomax":
				info += r.Utility
			}
		}
	}
	b.ReportMetric(fifo/float64(b.N), "fifo-utility")
	b.ReportMetric(info/float64(b.N), "infomax-utility")
}

// BenchmarkDecisionEngine measures the pure decision-engine step loop —
// the per-evidence overhead of decision-driven execution: one engine built
// (planned once), then asked for its next label and given it until the
// nine-label query resolves. Everything it allocates is construction; a
// rise in the gated allocs/op is an engine that allocates to answer
// NextLabel or Step, or a constructor that plans twice.
func BenchmarkDecisionEngine(b *testing.B) {
	dnf := athena.ToDNF(athena.MustParseExpr(
		"(a & b & c) | (d & e & f) | (g & h & i)"))
	meta := athena.MetaTable{}
	for _, l := range dnf.Labels() {
		meta[l] = athena.Meta{Cost: 1, ProbTrue: 0.7, Validity: time.Minute}
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := athena.NewDecision("bench", dnf, now.Add(time.Minute), meta)
		for {
			label, ok := d.NextLabel(now)
			if !ok {
				break
			}
			if err := d.Set(label, i%3 != 0, now.Add(time.Minute), "s", "a"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func fmtDyn(d float64) string {
	switch d {
	case 0:
		return "0.0"
	case 0.4:
		return "0.4"
	case 0.8:
		return "0.8"
	default:
		return "x"
	}
}

// BenchmarkMembershipControlPlane (A8) measures the steady-state
// membership control plane at n=64 — messages and bytes per node per
// heartbeat interval — for the flooded-heartbeat protocol vs SWIM gossip.
// The gossip figure must hold at or below a quarter of the flood figure;
// the committed BENCH_core.json baseline tracks both.
func BenchmarkMembershipControlPlane(b *testing.B) {
	for _, tc := range []struct {
		name   string
		fanout int
	}{
		{"flood", 0},
		{"gossip", 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var msgs, bytes float64
			for i := 0; i < b.N; i++ {
				row, err := experiment.RunMembership(64, tc.fanout, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				msgs += row.CtlMsgs
				bytes += row.CtlBytes
			}
			b.ReportMetric(msgs/float64(b.N), "ctl-msgs/node/iv")
			b.ReportMetric(bytes/float64(b.N), "ctl-B/node/iv")
		})
	}
}

// BenchmarkDirectoryMemory measures directory entries held per node and
// per-exchange anti-entropy bytes, sharded vs full-replica, on A9's
// structural rig (n=64 nodes, 10^4 sources, 256 shards, rf=3). Both
// reported metrics are deterministic, so the committed baseline doubles
// as a retention-regression gate (see ci.sh). Both sub-benchmarks time the
// same model, which computes both sides, so their B/op is the same number:
// `make bench` and ci.sh run it without -benchmem.
func BenchmarkDirectoryMemory(b *testing.B) {
	const (
		nodes   = 64
		sources = 10_000
		shards  = 256
		rf      = 3
	)
	for _, tc := range []struct {
		name    string
		sharded bool
	}{
		{"full", false},
		{"sharded", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var entries, sync float64
			for i := 0; i < b.N; i++ {
				row, err := experiment.RunShardScale(nodes, sources, shards, rf)
				if err != nil {
					b.Fatal(err)
				}
				if tc.sharded {
					entries += row.EntriesPerNode
					sync += row.SyncBytes
				} else {
					entries += float64(row.Sources)
					sync += row.FullSyncBytes
				}
			}
			b.ReportMetric(entries/float64(b.N), "entries/node")
			b.ReportMetric(sync/float64(b.N), "sync-B/exch")
		})
	}
}

// BenchmarkSimKernel measures the lane-per-node kernel on the A10
// synthetic workload at n=512: one complete 2-virtual-second simulation
// per iteration. Its allocs/op is what the ci.sh gate pins — events are
// pooled, so the allocation count is the deterministic setup cost and
// any growth means the hot path started allocating. The sub-benchmark
// keeps the name w1 the gate and BENCH_core.json know it by.
func BenchmarkSimKernel(b *testing.B) {
	b.Run("w1", func(b *testing.B) {
		b.ReportAllocs()
		var evps float64
		for i := 0; i < b.N; i++ {
			row, err := experiment.RunKernelScale(512, 1)
			if err != nil {
				b.Fatal(err)
			}
			evps += row.EventsPerSec
		}
		b.ReportMetric(evps/float64(b.N), "events/sec")
	})
}

// BenchmarkAblationNoise (A5) measures corroboration cost under sensor
// noise.
func BenchmarkAblationNoise(b *testing.B) {
	for _, noise := range []float64{0, 0.2} {
		name := "clean"
		if noise > 0 {
			name = "noisy"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchWorkload()
			cfg.FastRatio = 0.4
			var ratio float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				s, err := athena.GenerateScenario(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cluster, err := athena.NewCluster(s, athena.ClusterConfig{
					Scheme:      athena.SchemeLVF,
					SensorNoise: noise,
				})
				if err != nil {
					b.Fatal(err)
				}
				out, err := cluster.Run()
				if err != nil {
					b.Fatal(err)
				}
				ratio += out.ResolutionRatio()
			}
			b.ReportMetric(ratio/float64(b.N), "resolution")
		})
	}
}

// BenchmarkBatchedFetch measures the data-plane batching layer (A11) on
// a reduced incast rig: n=64 nodes behind one gateway, fan-in 8, with
// coalescing off and on. The on variant's frames/node is deterministic,
// so the committed baseline doubles as a coalescing-regression gate (see
// ci.sh): growth means the layer stopped merging traffic it used to
// merge.
func BenchmarkBatchedFetch(b *testing.B) {
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{
		{"off", 0},
		{"on", 10 * time.Millisecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var frames, bytes, batch float64
			for i := 0; i < b.N; i++ {
				row, err := experiment.RunBatching(64, 8, tc.window, 1)
				if err != nil {
					b.Fatal(err)
				}
				frames += row.MsgsPerNode
				bytes += row.BytesPerNode
				batch += row.MeanBatch
			}
			b.ReportMetric(frames/float64(b.N), "frames/node")
			b.ReportMetric(bytes/float64(b.N)/1e6, "MB/node")
			b.ReportMetric(batch/float64(b.N), "batch")
		})
	}
}
