// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark report on stdout, so `make bench` can commit a machine-readable
// baseline (BENCH_core.json) and CI can archive per-commit results.
//
//	go test -bench=. -benchmem . | go run ./cmd/benchjson > BENCH_core.json
//
// Each benchmark line ("BenchmarkX-8  100  123 ns/op  4.5 MB  0.99 resolution")
// becomes {"name", "iterations", "metrics": {"ns/op": ..., "MB": ..., ...}};
// non-benchmark lines are ignored.
//
// With -check it is CI's one regression gate instead: the run on stdin is
// compared against a committed baseline, one -gate per guarded number,
//
//	go test -bench ... | go run ./cmd/benchjson -check BENCH_core.json \
//	    -gate 'BenchmarkScheme/lvf:allocs/op:10'
//
// and the exit status is non-zero if, for any gate, the baseline lacks the
// number, the benchmark did not run, or the run exceeds baseline + slack%.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark's full name with the GOMAXPROCS suffix
	// stripped (BenchmarkScheme/lvf-8 -> BenchmarkScheme/lvf).
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value: ns/op, B/op, allocs/op, and any custom
	// b.ReportMetric units (MB, resolution, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the document written to stdout.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// gateFlags collects repeated -gate BENCHMARK:METRIC:SLACK% values: the
// named lower-is-better metric may exceed its baseline by SLACK percent.
type gateFlags []string

func (g *gateFlags) String() string     { return strings.Join(*g, " ") }
func (g *gateFlags) Set(v string) error { *g = append(*g, v); return nil }

// metric looks one number up in a report.
func (r Report) metric(bench, unit string) (float64, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == bench {
			v, ok := b.Metrics[unit]
			return v, ok
		}
	}
	return 0, false
}

// check applies every gate and returns one message per failure: a
// malformed gate, a number the baseline lacks, a benchmark that did not
// run, or a run above baseline + slack.
func check(base, run Report, gates []string) []string {
	var failures []string
	for _, g := range gates {
		bench, unit, slack, err := splitGate(g)
		want, inBase := base.metric(bench, unit)
		got, ran := run.metric(bench, unit)
		switch limit := want * (1 + slack/100); {
		case err != nil:
			failures = append(failures, err.Error())
		case !inBase:
			failures = append(failures, fmt.Sprintf("%s %s baseline missing", bench, unit))
		case !ran:
			failures = append(failures, fmt.Sprintf("%s did not run (no %s on stdin)", bench, unit))
		case got > limit:
			failures = append(failures, fmt.Sprintf("%s %s regressed: %v > %v (baseline %v + %v%%)", bench, unit, got, limit, want, slack))
		}
	}
	return failures
}

func splitGate(g string) (bench, unit string, slack float64, err error) {
	parts := strings.Split(g, ":")
	if len(parts) == 3 && parts[0] != "" && parts[1] != "" {
		if slack, err = strconv.ParseFloat(parts[2], 64); err == nil && slack >= 0 {
			return parts[0], parts[1], slack, nil
		}
	}
	return "", "", 0, fmt.Errorf("gate %q: want BENCHMARK:METRIC:SLACK%% with a non-negative slack", g)
}

// runCheck is the -check mode: baseline file against the run on stdin.
func runCheck(baselinePath string, stdin io.Reader, gates []string) error {
	if len(gates) == 0 {
		return fmt.Errorf("-check needs at least one -gate")
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	run, err := parse(stdin)
	if err != nil {
		return err
	}
	if failures := check(base, run, gates); len(failures) > 0 {
		return fmt.Errorf("%d of %d gates failed against %s:\n  %s",
			len(failures), len(gates), baselinePath, strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchjson: %d gates hold against %s\n", len(gates), baselinePath)
	return nil
}

func main() {
	var gates gateFlags
	baseline := flag.String("check", "", "baseline report to gate the run on stdin against (default: convert stdin to JSON)")
	flag.Var(&gates, "gate", "BENCHMARK:METRIC:SLACK% — with -check, fail if the metric exceeds its baseline by more than SLACK percent (repeatable)")
	flag.Parse()
	if *baseline != "" {
		if err := runCheck(*baseline, os.Stdin, gates); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse scans bench output for result lines. A result line is
//
//	BenchmarkName[-procs] <iterations> (<value> <unit>)+
func parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		b, ok := parseLine(sc.Text())
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	if rep.Benchmarks == nil {
		rep.Benchmarks = []Benchmark{}
	}
	return rep, nil
}

func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	// Shortest valid line: name, iterations, one value-unit pair.
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       stripProcs(fields[0]),
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// stripProcs removes the trailing -N GOMAXPROCS suffix go test appends, so
// baselines compare across machines with different core counts.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
