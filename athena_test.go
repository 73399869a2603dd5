package athena_test

import (
	"strings"
	"testing"
	"time"

	"athena"
)

func TestFacadeDecisionFlow(t *testing.T) {
	expr, err := athena.ParseExpr("(a & b) | c")
	if err != nil {
		t.Fatal(err)
	}
	dnf := athena.ToDNF(expr)
	if len(dnf.Terms) != 2 {
		t.Fatalf("terms = %d", len(dnf.Terms))
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	meta := athena.MetaTable{
		"a": {Cost: 1, ProbTrue: 0.9, Validity: time.Minute},
		"b": {Cost: 1, ProbTrue: 0.9, Validity: time.Minute},
		"c": {Cost: 100, ProbTrue: 0.1, Validity: time.Minute},
	}
	d := athena.NewDecision("q", dnf, now.Add(time.Minute), meta)
	if d.Step(now) != athena.Pending {
		t.Fatal("not pending")
	}
	label, ok := d.NextLabel(now)
	if !ok || (label != "a" && label != "b") {
		t.Fatalf("NextLabel = %q (plan should try the cheap likely term)", label)
	}
	if err := d.Set("c", true, now.Add(time.Minute), "s", "ann"); err != nil {
		t.Fatal(err)
	}
	if d.Step(now) != athena.ResolvedTrue {
		t.Fatal("c=true did not resolve")
	}
}

func TestFacadeExpectedCostWorkedExample(t *testing.T) {
	dnf := athena.ToDNF(athena.MustParseExpr("h & k"))
	meta := athena.MetaTable{
		"h": {Cost: 4, ProbTrue: 0.6},
		"k": {Cost: 5, ProbTrue: 0.2},
	}
	plan := athena.GreedyPlan(dnf, meta)
	if got := athena.ExpectedQueryCost(dnf, meta, plan); got != 5.8 {
		t.Errorf("expected cost = %v, want the paper's 5.8", got)
	}
}

func TestFacadeSchemes(t *testing.T) {
	if got := len(athena.Schemes()); got != 5 {
		t.Fatalf("schemes = %d", got)
	}
	s, err := athena.ParseScheme("lvfl")
	if err != nil || s != athena.SchemeLVFL {
		t.Fatalf("ParseScheme = %v, %v", s, err)
	}
}

func TestFacadeScenarioAndCluster(t *testing.T) {
	cfg := athena.DefaultWorkload()
	cfg.GridRows, cfg.GridCols = 4, 4
	cfg.Nodes = 6
	cfg.QueriesPerNode = 1
	s, err := athena.GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := athena.NewCluster(s, athena.ClusterConfig{Scheme: athena.SchemeLVFL})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cluster.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.QueriesIssued == 0 || out.TotalBytes == 0 {
		t.Errorf("outcome = %+v", out)
	}
	if r := out.ResolutionRatio(); r < 0 || r > 1 {
		t.Errorf("ratio = %v", r)
	}
}

// worldTrue resolves every label true.
type worldTrue struct{}

func (worldTrue) LabelValue(string, time.Time) bool { return true }

func TestSimNetworkEndToEnd(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	net := athena.NewSimNetwork(start)
	if err := net.AddLink("consumer", "sensor", 125_000, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	src := &athena.SourceDescriptor{
		Name:     athena.MustParseName("/sim/cam"),
		Size:     100_000,
		Validity: time.Minute,
		Labels:   []string{"x", "y"},
		Source:   "sensor",
		ProbTrue: 0.5,
	}
	if err := net.AddNode(athena.SimNodeConfig{ID: "consumer", World: worldTrue{}}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(athena.SimNodeConfig{ID: "sensor", World: worldTrue{}, Source: src}); err != nil {
		t.Fatal(err)
	}
	consumer, err := net.Node("consumer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.QueryInit(athena.ToDNF(athena.MustParseExpr("x & y")), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	results := consumer.Results()
	if len(results) != 1 || results[0].Status != athena.ResolvedTrue {
		t.Fatalf("results = %+v", results)
	}
	if net.BytesSent() < 100_000 {
		t.Errorf("BytesSent = %d", net.BytesSent())
	}
	if !net.Now().After(start) {
		t.Error("clock did not advance")
	}
}

// simParallelRun builds a small three-node chain on the parallel kernel
// with the given worker count and returns its traffic totals and the
// consumer's results.
func simParallelRun(t *testing.T, workers int) (int64, []athena.QueryResult) {
	t.Helper()
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	net := athena.NewSimNetwork(start)
	if err := net.SetWorkers(workers, 42); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("consumer", "relay", 125_000, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("relay", "sensor", 125_000, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	src := &athena.SourceDescriptor{
		Name:     athena.MustParseName("/sim/cam"),
		Size:     100_000,
		Validity: time.Minute,
		Labels:   []string{"x", "y"},
		Source:   "sensor",
		ProbTrue: 0.5,
	}
	for _, cfg := range []athena.SimNodeConfig{
		{ID: "consumer", World: worldTrue{}},
		{ID: "relay", World: worldTrue{}},
		{ID: "sensor", World: worldTrue{}, Source: src},
	} {
		if err := net.AddNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	consumer, err := net.Node("consumer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.QueryInit(athena.ToDNF(athena.MustParseExpr("x & y")), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	return net.BytesSent(), consumer.Results()
}

// TestSimNetworkParallelEngine pins the public facade's kernel switch:
// the run resolves identically to the shared-lane scenario shape
// and the outcome is byte-identical across worker counts.
func TestSimNetworkParallelEngine(t *testing.T) {
	bytes1, res1 := simParallelRun(t, 1)
	if len(res1) != 1 || res1[0].Status != athena.ResolvedTrue {
		t.Fatalf("results = %+v", res1)
	}
	if bytes1 < 100_000 {
		t.Errorf("BytesSent = %d", bytes1)
	}
	for _, w := range []int{2, 4} {
		bytesN, resN := simParallelRun(t, w)
		if bytesN != bytes1 {
			t.Errorf("W=%d: BytesSent = %d, want %d", w, bytesN, bytes1)
		}
		if len(resN) != len(res1) || resN[0].Status != res1[0].Status {
			t.Errorf("W=%d: results = %+v, want %+v", w, resN, res1)
		}
	}
	// SetWorkers must precede topology building and Build.
	late := athena.NewSimNetwork(time.Now())
	if err := late.AddLink("a", "b", 1000, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := late.SetWorkers(2, 1); err == nil {
		t.Error("SetWorkers after AddLink accepted")
	}
}

func TestSimNetworkValidation(t *testing.T) {
	net := athena.NewSimNetwork(time.Now())
	if err := net.AddNode(athena.SimNodeConfig{}); err == nil {
		t.Error("empty node accepted")
	}
	if err := net.AddLink("a", "b", 1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(athena.SimNodeConfig{ID: "a", World: worldTrue{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Node("missing"); err == nil {
		t.Error("unknown node returned")
	}
	// Each membership layer is rejected at the call when the one beneath it
	// is off, not later at Build.
	if err := net.EnableGossip(2, 1); err == nil {
		t.Error("EnableGossip without EnableMembership accepted")
	}
	if err := net.EnableSharding(4, 2); err == nil {
		t.Error("EnableSharding without EnableGossip accepted")
	}
	// Build is implicit and idempotent; post-build mutation fails.
	if err := net.Build(); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("c", "d", 1000, 0); err == nil {
		t.Error("AddLink after Build accepted")
	}
	if err := net.AddNode(athena.SimNodeConfig{ID: "e", World: worldTrue{}}); err == nil {
		t.Error("AddNode after Build accepted")
	}
}

func TestFacadeExperimentRender(t *testing.T) {
	cfg := athena.DefaultExperiment()
	cfg.Reps = 1
	cfg.Dynamics = []float64{0.4}
	cfg.Schemes = []athena.Scheme{athena.SchemeLVFL}
	w := athena.DefaultWorkload()
	w.GridRows, w.GridCols = 4, 4
	w.Nodes = 6
	w.QueriesPerNode = 1
	cfg.Workload = w
	points, err := athena.RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	if out := athena.RenderFig2(points); !strings.Contains(out, "lvfl") {
		t.Errorf("render: %s", out)
	}
	if out := athena.ExperimentCSV(points); !strings.Contains(out, "lvfl,0.40") {
		t.Errorf("csv: %s", out)
	}
}
