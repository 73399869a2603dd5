package athena

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"athena/internal/trace"
	"athena/internal/workload"
)

// pumpCount is what a traced run says about its pumps: how many, and how
// many pumped a query at an instant it had already been pumped at (a
// re-pump), by what was recorded for the query between the two pumps.
type pumpCount struct {
	decisions, pumps, repumps int
	classes                   map[string]int
}

// add counts one run's pumps off its trace. A re-pump's class is
// what was recorded for its query since the pump before it at that
// instant: a lookup reply, an answer from a cache at the origin (the
// drain's local delivery), a label value set by evidence from the network,
// a recovery step, or none of these; prefixed "init/" when that pump was
// the query's first, the one QueryInit makes.
func (pc *pumpCount) add(spans []trace.Span) {
	type last struct {
		at            time.Time
		pumped, first bool
		since         [4]bool // a span of each cause since the pump
	}
	causes := [4]trace.Kind{trace.Lookup, trace.Answer, trace.Set, trace.Retry}
	byQuery := make(map[string]*last)
	for _, s := range spans {
		l := byQuery[s.Query]
		if l == nil {
			l = new(last)
			byQuery[s.Query] = l
		}
		if s.Kind != trace.Pump {
			for i, k := range causes {
				l.since[i] = l.since[i] || s.Kind == k
			}
			continue
		}
		pc.pumps++
		if l.pumped && l.at.Equal(s.Start) {
			pc.repumps++
			class := "none"
			for i, k := range causes {
				if l.since[i] {
					class = k.String()
					break
				}
			}
			if l.first {
				class = "init/" + class
			}
			pc.classes[class]++
		}
		l.first = !l.pumped
		l.pumped, l.at, l.since = true, s.Start, [4]bool{}
	}
}

func (pc pumpCount) String() string {
	var cls []string
	for c, n := range pc.classes {
		cls = append(cls, fmt.Sprintf("%s %d", c, n))
	}
	sort.Strings(cls)
	return fmt.Sprintf("%d decisions, %.2f pumps a decision, %.2f re-pumps (%.0f %%); re-pumps by class: %s",
		pc.decisions, pc.perDecision(pc.pumps), pc.perDecision(pc.repumps),
		100*float64(pc.repumps)/float64(pc.pumps), strings.Join(cls, ", "))
}

func (pc pumpCount) perDecision(n int) float64 { return float64(n) / float64(pc.decisions) }

// TestPumpsPerDecision is ROADMAP item 25's count: the pumps a decision
// costs on the Sec. VII fleet under lvfl and cmp and on the kernel_fleet
// configuration, traced, on the benchmark's seed-1 scenario seeds (2^20
// onward; bench/sim.go). A node pumps a query once per piece of evidence,
// so when several land at one instant the query is pumped again at an
// instant it was already pumped at; settling an instant once (item 25)
// takes those re-pumps out. The ceilings are the counts measured before
// that change: pumps a decision must not rise.
func TestPumpsPerDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 21 traced scenarios")
	}
	const seed1 = 1 << 20
	sec7 := workload.DefaultConfig()
	cases := []struct {
		fleet          Fleet
		scenarios      int
		pumps, repumps float64
	}{
		{Fleet{Name: "sec7_lvfl", Workload: sec7, Cluster: ClusterConfig{Scheme: SchemeLVFL}}, 10, 6.42, 1.21},
		{Fleet{Name: "sec7_cmp", Workload: sec7, Cluster: ClusterConfig{Scheme: SchemeCMP}}, 10, 8.65, 1.82},
		{SweepFleets()[0], 1, 11.03, 2.35},
	}
	for _, c := range cases {
		pc := pumpCount{classes: make(map[string]int)}
		for i := 0; i < c.scenarios; i++ {
			wcfg := c.fleet.Workload
			wcfg.Seed = seed1 + int64(i)
			s, err := workload.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.New()
			cc := c.fleet.Cluster
			cc.Trace = rec
			cl, err := NewCluster(s, cc)
			if err != nil {
				t.Fatal(err)
			}
			out, err := cl.Run()
			if err != nil {
				t.Fatal(err)
			}
			pc.decisions += out.QueriesIssued
			pc.add(rec.Spans())
		}
		t.Logf("%s: %v", c.fleet.Name, pc)
		if got := pc.perDecision(pc.pumps); got > c.pumps {
			t.Errorf("%s: %.4f pumps a decision, over the %.2f ceiling", c.fleet.Name, got, c.pumps)
		}
		if got := pc.perDecision(pc.repumps); got > c.repumps {
			t.Errorf("%s: %.4f re-pumps a decision, over the %.2f ceiling", c.fleet.Name, got, c.repumps)
		}
	}
}
