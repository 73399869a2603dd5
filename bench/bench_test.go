package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	iathena "athena/internal/athena"
	"athena/internal/core"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	// Nearest rank never invents a value between two samples.
	if got := percentile([]float64{1, 100}, 0.5); got != 1 {
		t.Errorf("p50 of {1,100} = %v, want 1", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), which
// is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10.5, 12, 9, 30, 11, 10, 9.5}, [3]float64{9.5, 10.5, 12}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		s := summarize(c.xs)
		if got := [3]float64{s.Q1, s.Median, s.Q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	s := summarize([]float64{10.5, 12, 9, 30, 11, 10, 9.5})
	if got, want := s.iqrShare(), 2.5/10.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if !math.IsNaN(summarize(nil).Median) {
		t.Error("summary of nothing should be NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spanHandle, parent: -1, start: 0, end: 100},
		{kind: spanSend, parent: 0, start: 10, end: 30},     // 20 covered
		{kind: spanEncode, parent: 1, start: 12, end: 20},   // child of the send
		{kind: spanSend, parent: 0, start: 25, end: 50},     // overlaps the first send: adds 20 more
		{kind: spanNextHop, parent: 0, start: 90, end: 120}, // runs past its parent: clipped to 10
		{kind: spanTimer, parent: -1, start: 200, end: 260}, // no children
		{kind: spanTruth, parent: 0, start: 26, end: 28},    // inside a sibling: adds nothing
	}
	want := []int64{100 - 20 - 20 - 10, 20 - 8, 8, 25, 30, 60, 2}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpanTotalsSubtractQueueing(t *testing.T) {
	nodes := []nodeSpans{{id: "n", spans: []span{
		{kind: spanHandle, parent: -1, start: 0, end: 100, wait: 30},
		{kind: spanSend, parent: 0, start: 40, end: 60, bytes: 512},
	}}}
	got := summarizeSpans(nodes)
	if got.self[spanHandle] != 50 || got.wait[spanHandle] != 30 || got.total[spanHandle] != 100 {
		t.Errorf("handle: self %d wait %d total %d", got.self[spanHandle], got.wait[spanHandle], got.total[spanHandle])
	}
	if got.calls[spanSend] != 1 || got.bytes[spanSend] != 512 || len(got.sendNs) != 1 || got.topTotal != 100 {
		t.Errorf("send: %+v", got)
	}
}

func TestTraceFileRoundTrips(t *testing.T) {
	nodes := []nodeSpans{
		{id: "a", spans: []span{{kind: spanHandle, parent: -1, start: 1, end: 9, qid: "a/q1"}, {kind: spanSend, parent: 0, start: 2, end: 3, bytes: 7}}},
		{id: "b", spans: []span{{kind: spanTimer, parent: -1, start: 4, end: 5}, {kind: spanSend, parent: 0, start: 4, end: 5}}},
	}
	path, err := writeTrace(t.TempDir(), "w", nodes)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Kinds, Nodes, Columns []string
		Spans                 [][]any
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v\n%s", err, raw)
	}
	if len(doc.Kinds) != numSpanKinds || len(doc.Spans) != 4 || len(doc.Columns) != len(doc.Spans[0]) {
		t.Fatalf("trace file shape: %+v", doc)
	}
	// Node b's send points at node b's timer, which is row 2 of the file.
	if parent := doc.Spans[3][4].(float64); parent != 2 {
		t.Errorf("parent of the last row = %v, want 2", parent)
	}
	if doc.Spans[0][7] != "a/q1" {
		t.Errorf("query id column = %v", doc.Spans[0][7])
	}
}

func TestWithUnitsRejectsStrays(t *testing.T) {
	if _, err := withUnits(endToEnd, map[string]float64{"no_such_metric": 1}); err == nil {
		t.Error("a metric outside the table was accepted")
	}
	if _, err := withUnits(endToEnd, map[string]float64{"setup_s": math.NaN()}); err == nil {
		t.Error("NaN was accepted")
	}
}

// BENCHMARK.json repeats the tables for the driver; the two must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the table")
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, the program runs %v", names, workloadOrder)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is named twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] || boundOf("setup_s") > 0.25 {
		t.Error("setup_s must be an end-to-end metric with a bound of at most 0.25")
	}
}

// TestSmoke runs every workload, untraced and traced, at the least work
// that exercises every path, and checks the result line: every named
// metric present, finite, with its unit; nothing failed; outputs correct.
func TestSmoke(t *testing.T) {
	all := workloads()
	if len(all) != len(workloadOrder) {
		t.Fatalf("%d workloads registered, %d in the order", len(all), len(workloadOrder))
	}
	p := params{seed: 3, seconds: 1, smoke: true, outDir: t.TempDir()}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			table := endToEnd
			if traced {
				table = perLayer
			}
			var out bytes.Buffer
			if err := runOne(&out, name, all[name], p, traced); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 && m.Name != "bench.trace_overhead" {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", name, traced, m.Name, v, ok)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", name, m.Name)
				}
			}
			if traced {
				checkLayersApply(t, name, res)
			}
		}
	}
}

// checkLayersApply checks that the per-layer metrics a workload is there
// to exercise were actually measured on it, and the ones that cannot
// apply read zero.
func checkLayersApply(t *testing.T, name string, res result) {
	t.Helper()
	sim := !strings.HasPrefix(name, "tcp_")
	must := []string{"athena.queryinit_us", "athena.handle_self_us", "athena.handle_calls", "athena.requests", "annotate.calls", "trust.sign_calls"}
	var never []string
	if sim {
		must = append(must, "netsim.send_us", "netsim.send_calls", "netsim.delivered_share", "netsim.decision_p99_ms",
			"simclock.engine_self_us", "simclock.sched_event_ns", "workload.generate_ms")
		never = []string{"transport.send_calls", "wire.encode_us", "wire.decode_us", "transport.decision_p99_ms"}
	} else {
		must = append(must, "transport.send_self_us", "transport.send_calls", "transport.send_p99_us", "transport.decision_p99_ms",
			"wire.encode_us", "wire.decode_us", "wire.encode_kb", "wire.encode_small_ns", "wire.decode_data_ns",
			"transport.tcp_small_rtt_us", "transport.tcp_send_1mb_us")
		never = []string{"netsim.send_calls", "simclock.events", "simclock.engine_self_us"}
	}
	switch name {
	case "kernel_fleet":
		must = append(must, "simclock.events", "simclock.events_per_s", "membership.ctl_msgs", "shard.lookups",
			"cache.put_get_ns", "athena.directory_digest_ns", "simclock.kernel_post_ns", "shard.owners_ns")
	case "sec7_lvfl", "tcp_small":
		must = append(must, "boolexpr.plan_ns", "core.engine_new_ns", "trust.sign_ns", "trust.sign_us")
	}
	for _, m := range must {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s: %s = %v, expected a measurement", name, m, res.Metrics[m].Value)
		}
	}
	for _, m := range never {
		if res.Metrics[m].Value != 0 {
			t.Errorf("%s: %s = %v, expected 0 (does not apply)", name, m, res.Metrics[m].Value)
		}
	}
}

// wrongWorkload reports an output check that failed.
type wrongWorkload struct{}

func (wrongWorkload) measure(params, io.Writer) (outcome, error) {
	vals := make(map[string]float64)
	for _, m := range endToEnd {
		vals[m.Name] = 1
	}
	return outcome{vals: vals, attempted: 10, wrong: []string{"decision 7: got resolved-false, ground truth says resolved-true"}}, nil
}

func (wrongWorkload) traced(params, io.Writer) (outcome, error) {
	return outcome{}, errors.New("not used")
}

func TestWrongOutputFailsTheRun(t *testing.T) {
	var out bytes.Buffer
	err := runOne(&out, "wrong", wrongWorkload{}, params{seed: 1, seconds: 1}, false)
	if err == nil {
		t.Fatal("a wrong output did not fail the run")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("the result line says correct")
	}
	if !strings.Contains(out.String(), "decision 7") {
		t.Error("the offending decision was not printed")
	}
}

func TestSimRunSameComparesEveryField(t *testing.T) {
	var base simRun
	base.out.QueriesIssued, base.out.ResolvedTrue, base.out.ResolvedFalse = 10, 6, 3
	base.out.TotalBytes, base.out.MeanLatency, base.sent = 1000, 5, 40
	if !base.same(base) {
		t.Fatal("a run differs from itself")
	}
	for i, mutate := range []func(*simRun){
		func(r *simRun) { r.out.QueriesIssued++ },
		func(r *simRun) { r.out.ResolvedTrue++ },
		func(r *simRun) { r.out.ResolvedFalse++ },
		func(r *simRun) { r.out.TotalBytes++ },
		func(r *simRun) { r.out.MeanLatency++ },
		func(r *simRun) { r.sent++ },
	} {
		other := base
		mutate(&other)
		if base.same(other) {
			t.Errorf("mutation %d went unnoticed", i)
		}
	}
}

func TestFleetPlanIsSeededAndBalanced(t *testing.T) {
	w := tcpWorkloads[0]
	a, b := w.plan(params{seed: 4}, 2), w.plan(params{seed: 4}, 2)
	if !reflect.DeepEqual(a.sources, b.sources) || !reflect.DeepEqual(a.world, b.world) || len(a.queries) != hostThreads {
		t.Fatal("the same seed and plan index gave different plans")
	}
	if reflect.DeepEqual(a.sources, w.plan(params{seed: 5}, 2).sources) && reflect.DeepEqual(a.world, w.plan(params{seed: 5}, 2).world) {
		t.Error("another seed gave the same plan")
	}
	if reflect.DeepEqual(a.queries, w.plan(params{seed: 4}, 3).queries) {
		t.Error("another plan of the same run asks the same questions")
	}
	// Over fleetSources consecutive plans every source has every size
	// once, and the world does not change.
	sizes := make(map[string]map[int64]bool)
	for i := 0; i < fleetSources; i++ {
		plan := w.plan(params{seed: 4}, i)
		if !reflect.DeepEqual(plan.world, a.world) {
			t.Fatalf("plan %d has another world", i)
		}
		for _, d := range plan.sources {
			if sizes[d.Source] == nil {
				sizes[d.Source] = make(map[int64]bool)
			}
			sizes[d.Source][d.Size] = true
		}
	}
	for src, seen := range sizes {
		if len(seen) != fleetSources {
			t.Errorf("%s had %d of the %d sizes", src, len(seen), fleetSources)
		}
	}
	// Exactly falseLabels labels are false, each on a source of its own.
	falseOn := make(map[string]int)
	for _, d := range a.sources {
		for _, l := range d.Labels {
			if !a.world[l] {
				falseOn[d.Source]++
			}
		}
	}
	if len(a.world) != fleetLabels || len(falseOn) != falseLabels {
		t.Errorf("%d labels, false ones on %v; want %d labels and %d sources with one false label each", len(a.world), falseOn, fleetLabels, falseLabels)
	}
	for src, n := range falseOn {
		if n != 1 {
			t.Errorf("%s has %d false labels", src, n)
		}
	}
}

// A client that gave up on one decision must not take that decision's
// late answer for the answer to the next.
func TestAwaitAnswerDropsLateAnswers(t *testing.T) {
	done := make(chan iathena.QueryResult, 3)
	done <- iathena.QueryResult{QueryID: "con0/q1", Status: core.ResolvedFalse}
	done <- iathena.QueryResult{QueryID: "con0/q2", Status: core.ResolvedTrue}
	res, ok := awaitAnswer(done, "con0/q2", nil)
	if !ok || res.QueryID != "con0/q2" || res.Status != core.ResolvedTrue {
		t.Errorf("got %+v, %v; want the answer to q2", res, ok)
	}
	giveUp := make(chan time.Time, 1)
	giveUp <- time.Time{}
	done <- iathena.QueryResult{QueryID: "con0/q2"}
	if res, ok := awaitAnswer(done, "con0/q3", giveUp); ok {
		t.Errorf("a late answer %+v was taken for the answer to q3", res)
	}
}

func TestFasterKeepsTheQuickerExecution(t *testing.T) {
	a := simRun{wall: 5 * time.Second, cpu: 6 * time.Second, setup: 10 * time.Millisecond}
	b := simRun{wall: 4 * time.Second, cpu: 7 * time.Second, setup: 30 * time.Millisecond}
	for _, got := range []simRun{faster(a, b), faster(b, a)} {
		if got.wall != b.wall || got.cpu != b.cpu || got.setup != a.setup {
			t.Errorf("faster kept wall %v cpu %v setup %v", got.wall, got.cpu, got.setup)
		}
	}
}

func TestUnitsScaleWithSeconds(t *testing.T) {
	for _, c := range []struct {
		p    params
		want int
	}{
		{params{seconds: defaultSeconds}, 300},
		{params{seconds: defaultSeconds / 2}, 150},
		{params{seconds: 1}, 15},
		{params{seconds: defaultSeconds, smoke: true}, 2},
	} {
		if got := c.p.units(300); got != c.want {
			t.Errorf("%+v: %d units, want %d", c.p, got, c.want)
		}
	}
	if got := (params{seconds: 1}).units(8); got != 2 {
		t.Errorf("a run never has fewer than 2 units, got %d", got)
	}
}

func TestWorseningFollowsTheDirection(t *testing.T) {
	lower, higher := metric{Better: "lower"}, metric{Better: "higher"}
	if lower.worsening(0.1) != 0.1 || higher.worsening(0.1) != -0.1 || higher.worsening(-0.03) != 0.03 {
		t.Error("worsening has the wrong sign")
	}
}

func TestSpeedMeterScalesToTheReference(t *testing.T) {
	times := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 80 * time.Millisecond}
	m := &speedMeter{sample: func() (time.Duration, error) {
		d := times[0]
		times = times[1:]
		return d, nil
	}}
	for range 3 {
		if err := m.take(); err != nil {
			t.Fatal(err)
		}
	}
	// The median calibration took 80 ms where the reference box takes
	// 100 ms: this box is the faster one, so its times are scaled up.
	if got, want := m.atReferenceSpeed(), calibrationNominal.Seconds()/0.080; math.Abs(got-want) > 1e-12 {
		t.Errorf("factor %v, want %v", got, want)
	}
	// A tick right after a sample takes no other.
	if err := m.tick(); err != nil || len(m.samples) != 3 {
		t.Errorf("tick took a sample too soon: %v, %d samples", err, len(m.samples))
	}
	m.sample = func() (time.Duration, error) { return 0, errors.New("no child") }
	m.last = m.last.Add(-2 * time.Second)
	if err := m.tick(); err == nil {
		t.Error("a failed calibration went unreported")
	}
}

func TestCalibrationWorkIsTheSameWorkEveryTime(t *testing.T) {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if calibrationWork() <= 0 {
		t.Fatal("the calibration work took no time")
	}
	runtime.ReadMemStats(&m1)
	calibrationWork()
	runtime.ReadMemStats(&m2)
	a, b := m1.Mallocs-m0.Mallocs, m2.Mallocs-m1.Mallocs
	if diff := math.Abs(float64(a) - float64(b)); diff > 0.001*float64(a) {
		t.Errorf("two runs of the calibration work allocated %d and %d objects", a, b)
	}
}
