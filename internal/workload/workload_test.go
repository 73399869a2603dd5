package workload

import (
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/netsim"
	"athena/internal/simclock"
)

func TestWorldDeterministicAndEpochal(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	w1 := NewWorld(7, epoch, 0.8, time.Minute)
	w2 := NewWorld(7, epoch, 0.8, time.Minute)
	w1.SetPeriod("x", 10*time.Second)
	w2.SetPeriod("x", 10*time.Second)

	for i := 0; i < 100; i++ {
		at := epoch.Add(time.Duration(i) * 3 * time.Second)
		if w1.LabelValue("x", at) != w2.LabelValue("x", at) {
			t.Fatal("same seed worlds disagree")
		}
	}
	// Constant within an epoch.
	if w1.LabelValue("x", epoch.Add(time.Second)) != w1.LabelValue("x", epoch.Add(9*time.Second)) {
		t.Error("value changed within one epoch")
	}
	// Different seeds disagree somewhere.
	w3 := NewWorld(8, epoch, 0.8, time.Minute)
	w3.SetPeriod("x", 10*time.Second)
	diff := false
	for i := 0; i < 200 && !diff; i++ {
		at := epoch.Add(time.Duration(i) * 10 * time.Second)
		diff = w1.LabelValue("x", at) != w3.LabelValue("x", at)
	}
	if !diff {
		t.Error("different seeds never disagree")
	}
}

func TestWorldViabilityPrior(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	w := NewWorld(3, epoch, 0.8, time.Second)
	viable := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if w.LabelValue("seg", epoch.Add(time.Duration(i)*time.Second)) {
			viable++
		}
	}
	rate := float64(viable) / n
	if rate < 0.75 || rate > 0.85 {
		t.Errorf("viability rate = %v, want ~0.8", rate)
	}
}

func TestSegmentLabels(t *testing.T) {
	h := Segment{Row: 2, Col: 3, Horizontal: true}
	v := Segment{Row: 2, Col: 3, Horizontal: false}
	if h.Label() == v.Label() {
		t.Error("horizontal and vertical labels collide")
	}
	if h.Label() != "viable:h:2-3" {
		t.Errorf("label = %q", h.Label())
	}
}

func TestGenerateScenarioShape(t *testing.T) {
	cfg := DefaultConfig()
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Placements) != 30 {
		t.Errorf("nodes = %d", len(s.Placements))
	}
	if len(s.Queries) == 0 || len(s.Queries) > 30*3 {
		t.Errorf("queries = %d", len(s.Queries))
	}
	for _, q := range s.Queries {
		if len(q.Expr.Terms) == 0 || len(q.Expr.Terms) > routesPerQuery {
			t.Fatalf("query has %d routes", len(q.Expr.Terms))
		}
		// Every label in every query must be coverable.
		for _, l := range q.Expr.Labels() {
			if len(s.LabelSources[l]) == 0 {
				t.Fatalf("label %s has no sources", l)
			}
			if _, ok := s.Meta[l]; !ok {
				t.Fatalf("label %s has no metadata", l)
			}
		}
	}
	for _, src := range s.Sources {
		if src.Size < minObjectBytes || src.Size > maxObjectBytes {
			t.Errorf("object size %d out of range", src.Size)
		}
		if len(src.Labels) == 0 {
			t.Error("camera covers no segments")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query counts differ across identical seeds")
	}
	for i := range a.Queries {
		if a.Queries[i].Expr.String() != b.Queries[i].Expr.String() {
			t.Fatalf("query %d differs", i)
		}
	}
	if len(a.Links) != len(b.Links) {
		t.Fatal("links differ")
	}
}

func TestFastRatioControlsPeriods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastRatio = 0
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := range s.LabelSources {
		if s.World.Period(l) != slowValidity {
			t.Fatalf("label %s fast at ratio 0", l)
		}
	}
	cfg.FastRatio = 1
	s, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := range s.LabelSources {
		if s.World.Period(l) != fastValidity {
			t.Fatalf("label %s slow at ratio 1", l)
		}
	}
}

func TestBuildNetworkConnected(t *testing.T) {
	s, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := simclock.New(s.Epoch)
	net := netsim.New(sched)
	if err := s.BuildNetwork(net); err != nil {
		t.Fatal(err)
	}
	nodes := net.Nodes()
	if len(nodes) != 30 {
		t.Fatalf("network nodes = %d", len(nodes))
	}
	for _, n := range nodes {
		if _, err := net.PathLength(n, nodes[0]); err != nil {
			t.Fatalf("node %s unreachable: %v", n, err)
		}
	}
}

func TestStaircaseRouteConnects(t *testing.T) {
	s, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: each query's routes are non-empty conjunctions of
	// viability predicates.
	for _, q := range s.Queries[:5] {
		for _, term := range q.Expr.Terms {
			if len(term.Literals) == 0 {
				t.Fatal("empty route term")
			}
			for _, lit := range term.Literals {
				if lit.Negated {
					t.Fatal("route literal negated")
				}
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("accepted 1 node")
	}
	cfg = DefaultConfig()
	cfg.Nodes = 500
	if _, err := Generate(cfg); err == nil {
		t.Error("accepted more nodes than intersections")
	}
}

// BenchmarkGenerate builds one scenario per op: sec7 is the Sec. VII
// default (8×8 segments, 30 nodes), fleet81 the 81-node full grid the
// kernel_fleet benchmark workload runs. Every op uses the same seed, so
// allocs/op is a pure function of the code and ci.sh gates it: a route
// search that allocates per extracted intersection, or a per-label loop
// that grew a map, shows there.
func BenchmarkGenerate(b *testing.B) {
	fleet := DefaultConfig()
	fleet.GridRows, fleet.GridCols, fleet.Nodes = 9, 9, 81
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"sec7", DefaultConfig()}, {"fleet81", fleet}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMetaMatchesWorldPeriods(t *testing.T) {
	s, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for l, m := range s.Meta {
		if m.Validity != s.World.Period(l) {
			t.Fatalf("meta validity %v != world period %v for %s", m.Validity, s.World.Period(l), l)
		}
		if m.Cost <= 0 {
			t.Fatalf("non-positive cost for %s", l)
		}
	}
	var _ boolexpr.MetaTable = s.Meta
}
