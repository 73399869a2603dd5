package athena

import (
	"reflect"
	"testing"

	"athena/internal/workload"
)

// TestStatsAddSumsEveryField sets every counter of Stats to a distinct
// value by reflection and checks Add carries each one: a field Add cannot
// sum fails here instead of reading zero in every Outcome.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if !av.Field(i).CanInt() {
			t.Fatalf("Stats.%s is a %s: teach Add and this test how to sum it",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(1000 + i))
		bv.Field(i).SetInt(int64(7 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(1000+i+7*(i+1)); got != want {
			t.Errorf("Stats.%s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// TestOutcomeNodeCarriesEveryCounter pins Cluster.Run to Stats.Add: the
// fleet total equals the per-node sum on every field, including the
// terminal-status counters that Outcome also reports at top level.
func TestOutcomeNodeCarriesEveryCounter(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.GridRows, wcfg.GridCols = 5, 5
	wcfg.Nodes = 14
	wcfg.QueriesPerNode = 2
	wcfg.Seed = 7
	wcfg.FastRatio = 0.4
	s, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(s, ClusterConfig{Scheme: SchemeLVFL})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cluster.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	for _, node := range cluster.Nodes {
		want.Add(node.Stats())
	}
	if out.Node != want {
		t.Errorf("Outcome.Node = %+v\nper-node sum  = %+v", out.Node, want)
	}
	if out.Node.QueriesIssued != out.QueriesIssued || out.QueriesIssued == 0 ||
		out.Node.Expired != out.QueriesIssued-out.QueriesResolved {
		t.Errorf("issued %d, resolved %d, but Node says issued %d, expired %d",
			out.QueriesIssued, out.QueriesResolved, out.Node.QueriesIssued, out.Node.Expired)
	}
}
