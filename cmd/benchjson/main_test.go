package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: athena
cpu: AMD EPYC 7R32
BenchmarkScheme/cmp-8         	     100	  11484615 ns/op	        35.56 MB	         1.000 resolution
BenchmarkScheme/lvf-8         	      93	  12031702 ns/op	        28.90 MB	         0.987 resolution	   52311 B/op	     612 allocs/op
BenchmarkCounterInc-8         	829000000	         1.441 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	athena	4.322s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	cmp := rep.Benchmarks[0]
	if cmp.Name != "BenchmarkScheme/cmp" {
		t.Errorf("name = %q, want procs suffix stripped", cmp.Name)
	}
	if cmp.Iterations != 100 {
		t.Errorf("iterations = %d, want 100", cmp.Iterations)
	}
	want := map[string]float64{"ns/op": 11484615, "MB": 35.56, "resolution": 1.0}
	for unit, v := range want {
		if got := cmp.Metrics[unit]; got != v {
			t.Errorf("cmp %s = %v, want %v", unit, got, v)
		}
	}

	lvf := rep.Benchmarks[1]
	if got := lvf.Metrics["allocs/op"]; got != 612 {
		t.Errorf("lvf allocs/op = %v, want 612 (benchmem pairs must parse)", got)
	}
	if got := lvf.Metrics["resolution"]; got != 0.987 {
		t.Errorf("lvf resolution = %v, want 0.987", got)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	noise := `goos: linux
Benchmark	notanumber	1 ns/op
BenchmarkNoPairs-8	500
--- BENCH: BenchmarkFoo-8
    bench_test.go:12: note
FAIL
`
	rep, err := parse(strings.NewReader(noise))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("noise parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkScheme/lvf-8": "BenchmarkScheme/lvf",
		"BenchmarkPlain-16":     "BenchmarkPlain",
		"BenchmarkNoSuffix":     "BenchmarkNoSuffix",
		"BenchmarkDash-v2":      "BenchmarkDash-v2",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCheckGates covers the gate's three failure modes and its slack
// arithmetic, against the sample run above.
func TestCheckGates(t *testing.T) {
	run, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkScheme/lvf", Metrics: map[string]float64{"allocs/op": 560, "MB": 20}},
		{Name: "BenchmarkSimKernel/w1", Metrics: map[string]float64{"allocs/op": 9000}},
	}}
	cases := []struct {
		name string
		gate string
		want string // substring of the one failure; "" = the gate holds
	}{
		{"inside slack", "BenchmarkScheme/lvf:allocs/op:10", ""},
		{"regressed", "BenchmarkScheme/lvf:allocs/op:5", "regressed: 612 > 588"},
		{"custom metric regressed", "BenchmarkScheme/lvf:MB:10", "MB regressed"},
		{"baseline lacks the benchmark", "BenchmarkScheme/cmp:MB:10", "BenchmarkScheme/cmp MB baseline missing"},
		{"baseline lacks the metric", "BenchmarkScheme/lvf:ns/op:10", "ns/op baseline missing"},
		{"benchmark did not run", "BenchmarkSimKernel/w1:allocs/op:10", "BenchmarkSimKernel/w1 did not run"},
	}
	for _, c := range cases {
		failures := check(base, run, []string{c.gate})
		switch {
		case c.want == "" && len(failures) != 0:
			t.Errorf("%s: unexpected failures %q", c.name, failures)
		case c.want != "" && (len(failures) != 1 || !strings.Contains(failures[0], c.want)):
			t.Errorf("%s: failures = %q, want one containing %q", c.name, failures, c.want)
		}
	}

	// A run equal to baseline + slack holds: the limit is inclusive.
	if f := check(Report{Benchmarks: []Benchmark{{Name: "B", Metrics: map[string]float64{"m": 100}}}},
		Report{Benchmarks: []Benchmark{{Name: "B", Metrics: map[string]float64{"m": 110}}}},
		[]string{"B:m:10"}); len(f) != 0 {
		t.Errorf("run at exactly baseline+10%% failed: %q", f)
	}
	// Every failing gate is reported, not just the first.
	all := []string{"BenchmarkScheme/lvf:allocs/op:5", "BenchmarkSimKernel/w1:allocs/op:10", "BenchmarkScheme/lvf:allocs/op:10"}
	if f := check(base, run, all); len(f) != 2 {
		t.Errorf("got %d failures, want 2: %q", len(f), f)
	}
	// A malformed gate is a failure, never a silently skipped check.
	for _, bad := range []string{"", "BenchmarkX", "BenchmarkX:allocs/op", "BenchmarkX:allocs/op:ten", "BenchmarkX:allocs/op:-1", ":m:1", "a:b:c:d"} {
		if f := check(base, run, []string{bad}); len(f) != 1 || !strings.Contains(f[0], "want BENCHMARK:METRIC:SLACK%") {
			t.Errorf("gate %q: failures = %q", bad, f)
		}
	}
}

// TestRunCheck drives the -check mode end to end: baseline file on disk,
// bench output on stdin.
func TestRunCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := `{"benchmarks":[{"name":"BenchmarkScheme/lvf","iterations":3,"metrics":{"allocs/op":600}}]}`
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	ok := []string{"BenchmarkScheme/lvf:allocs/op:10"}
	if err := runCheck(path, strings.NewReader(sample), ok); err != nil {
		t.Errorf("gate inside slack failed: %v", err)
	}
	tight := []string{"BenchmarkScheme/lvf:allocs/op:1"}
	if err := runCheck(path, strings.NewReader(sample), tight); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("regression not reported: %v", err)
	}
	if err := runCheck(path, strings.NewReader("FAIL\n"), ok); err == nil || !strings.Contains(err.Error(), "did not run") {
		t.Errorf("empty run not reported: %v", err)
	}
	if err := runCheck(path, strings.NewReader(sample), nil); err == nil {
		t.Error("-check without gates accepted")
	}
	if err := runCheck(filepath.Join(t.TempDir(), "absent.json"), strings.NewReader(sample), ok); err == nil {
		t.Error("missing baseline file accepted")
	}
}
