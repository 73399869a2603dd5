package experiment

import (
	"strings"
	"testing"

	"athena/internal/athena"
	"athena/internal/workload"
)

// tinyConfig is a fast experiment configuration for tests.
func tinyConfig() Config {
	cfg := Default()
	cfg.Reps = 2
	cfg.Schemes = []athena.Scheme{athena.SchemeSLT, athena.SchemeLVFL}
	w := workload.DefaultConfig()
	w.GridRows, w.GridCols = 4, 4
	w.Nodes = 8
	w.QueriesPerNode = 1
	cfg.Workload = w
	return cfg
}

func TestFig2SmallRun(t *testing.T) {
	points, err := Fig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 { // 6 dynamics x 2 schemes
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Reps != 2 {
			t.Errorf("reps = %d", p.Reps)
		}
		if p.Ratio < 0 || p.Ratio > 1 {
			t.Errorf("ratio = %v", p.Ratio)
		}
		if p.MeanMB <= 0 {
			t.Errorf("bytes = %v", p.MeanMB)
		}
		if p.RatioMin > p.Ratio || p.RatioMax < p.Ratio {
			t.Errorf("bounds %v..%v around %v", p.RatioMin, p.RatioMax, p.Ratio)
		}
	}
	table := RenderFig2(points)
	if !strings.Contains(table, "slt") || !strings.Contains(table, "lvfl") {
		t.Errorf("render missing schemes:\n%s", table)
	}
	csv := CSV(points)
	if strings.Count(csv, "\n") != 13 {
		t.Errorf("csv rows:\n%s", csv)
	}
}

func TestFig3SmallRun(t *testing.T) {
	cfg := tinyConfig()
	points, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Dynamics != 0.4 {
			t.Errorf("dynamics = %v", p.Dynamics)
		}
	}
	out := RenderFig3(points)
	if !strings.Contains(out, "bandwidth") {
		t.Errorf("render:\n%s", out)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := tinyConfig()
	cfg.Schemes = []athena.Scheme{athena.SchemeLVFL}
	a, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Ratio != b[0].Ratio || a[0].MeanMB != b[0].MeanMB {
		t.Errorf("nondeterministic: %+v vs %+v", a[0], b[0])
	}
}

func TestAblationInfomax(t *testing.T) {
	rows := AblationInfomax(7, 5)
	var fifo, info InfomaxRow
	for _, r := range rows {
		switch r.Label {
		case "fifo":
			fifo = r
		case "infomax":
			info = r
		}
	}
	if info.Utility <= fifo.Utility {
		t.Errorf("infomax %v did not beat fifo %v", info.Utility, fifo.Utility)
	}
	out := RenderInfomax(rows)
	if !strings.Contains(out, "infomax") {
		t.Errorf("render:\n%s", out)
	}
}

func TestAblationNoiseSmall(t *testing.T) {
	cfg := tinyConfig()
	cfg.Reps = 1
	rows, err := AblationNoise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Noise-free must do at least as well as the noisiest setting on
	// resolution, and cost must not shrink with noise.
	first, last := rows[0], rows[len(rows)-1]
	if first.Label != "noise=0.00" {
		t.Fatalf("rows[0] = %q", first.Label)
	}
	if last.Ratio > first.Ratio+1e-9 {
		t.Errorf("noise improved resolution: %v -> %v", first.Ratio, last.Ratio)
	}
	if last.MeanMB < first.MeanMB-1e-9 {
		t.Errorf("noise reduced cost: %v -> %v", first.MeanMB, last.MeanMB)
	}
}
