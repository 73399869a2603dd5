package boolexpr

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The planner, renderer and label set as they were before they stopped
// looking metadata up per comparison and building strings in pieces: the
// oracles the rewrites are held to.

func sliceStableOrderTerm(t Term, m MetaTable) []int {
	order := identityOrder(len(t.Literals))
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := t.Literals[order[a]], t.Literals[order[b]]
		ca := m.Get(la.Label).Cost
		cb := m.Get(lb.Label).Cost
		return (1-probTrue(la, m))*cb > (1-probTrue(lb, m))*ca
	})
	return order
}

// sliceStablePlan is GreedyPlan as it was and, with validityFirst, the
// re-sort by validity the node then applied for lvf and lvfl.
func sliceStablePlan(d DNF, m MetaTable, validityFirst bool) QueryPlan {
	litOrder := make([][]int, len(d.Terms))
	termCost := make([]float64, len(d.Terms))
	termProb := make([]float64, len(d.Terms))
	for i, t := range d.Terms {
		litOrder[i] = sliceStableOrderTerm(t, m)
		termCost[i] = ExpectedTermCost(t, m, litOrder[i])
		termProb[i] = TermProbTrue(t, m)
	}
	termOrder := identityOrder(len(d.Terms))
	sort.SliceStable(termOrder, func(a, b int) bool {
		ia, ib := termOrder[a], termOrder[b]
		return termProb[ia]*termCost[ib] > termProb[ib]*termCost[ia]
	})
	if validityFirst {
		for ti, t := range d.Terms {
			order := litOrder[ti]
			validity := make([]time.Duration, len(t.Literals))
			for li := range t.Literals {
				validity[li] = m.Get(t.Literals[li].Label).Validity
			}
			sort.SliceStable(order, func(a, b int) bool {
				return validity[order[a]] > validity[order[b]]
			})
		}
	}
	return QueryPlan{TermOrder: termOrder, LiteralOrder: litOrder}
}

func joinTermString(t Term) string {
	parts := make([]string, len(t.Literals))
	for i, l := range t.Literals {
		parts[i] = l.String()
	}
	return strings.Join(parts, " & ")
}

func joinString(d DNF) string {
	if len(d.Terms) == 0 {
		return "false"
	}
	parts := make([]string, len(d.Terms))
	for i, t := range d.Terms {
		if len(d.Terms) > 1 && len(t.Literals) > 1 {
			parts[i] = "(" + joinTermString(t) + ")"
		} else {
			parts[i] = joinTermString(t)
		}
	}
	return strings.Join(parts, " | ")
}

func mapLabels(d DNF) []string {
	seen := make(map[string]bool)
	for _, t := range d.Terms {
		for _, l := range t.Literals {
			seen[l.Label] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// tieDNF draws a DNF built directly (not through ToDNF, so a term may hold
// a label twice, or nothing) over 30 labels, with up to 26 terms of up to
// 45 literals: past the stable sorts' 20-element insertion blocks, so the
// merges run too.
func tieDNF(rng *rand.Rand) DNF {
	size := func() int {
		if rng.Intn(4) == 0 {
			return rng.Intn(46)
		}
		return rng.Intn(6)
	}
	d := DNF{Terms: make([]Term, size()%27)}
	for i := range d.Terms {
		lits := make([]Literal, size())
		for j := range lits {
			lits[j] = Literal{Label: "l" + string(rune('a'+rng.Intn(30))), Negated: rng.Intn(3) == 0}
		}
		d.Terms[i] = Term{Literals: lits}
	}
	return d
}

// tieMeta prices a third of the labels not at all (neutral defaults) and
// the rest from a few values each, zero cost, out-of-range probabilities
// and zero validity among them, so equal keys and zero products are common.
func tieMeta(rng *rand.Rand) MetaTable {
	costs := []float64{0, 0, 1, 2, 0.5}
	probs := []float64{0, 0.5, 1, 0.25, 1.5, -0.2}
	validity := []time.Duration{0, time.Second, time.Minute}
	m := make(MetaTable)
	for c := 'a'; c < 'a'+30; c++ {
		if rng.Intn(3) == 0 {
			continue
		}
		m["l"+string(c)] = Meta{
			Cost:     costs[rng.Intn(len(costs))],
			ProbTrue: probs[rng.Intn(len(probs))],
			Validity: validity[rng.Intn(len(validity))],
		}
	}
	return m
}

// TestPlanMatchesSliceStablePlanner runs GreedyPlan and ValidityFirstPlan
// against the per-comparison, sort.SliceStable planner they replaced, on
// random DNFs full of ties: the same term and literal orders, ties
// included.
func TestPlanMatchesSliceStablePlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		d, m := tieDNF(rng), tieMeta(rng)
		if trial%7 == 0 {
			m = nil // no metadata at all
		}
		for _, validityFirst := range []bool{false, true} {
			want := sliceStablePlan(d, m, validityFirst)
			got := GreedyPlan(d, m)
			if validityFirst {
				got = ValidityFirstPlan(d, m)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d validityFirst=%v on %s:\ngot  %v\nwant %v", trial, validityFirst, d, got, want)
			}
		}
		for ti, term := range d.Terms {
			if got, want := OrderTermGreedy(term, m), sliceStableOrderTerm(term, m); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d term %d: OrderTermGreedy = %v, want %v", trial, ti, got, want)
			}
		}
	}
}

// TestDNFTextMatchesJoin runs DNF.String, Term.String and DNF.Labels
// against the strings.Join renderer and the map-and-sort label set they
// replaced, and pins DNF.String at one allocation.
func TestDNFTextMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []DNF{{}, {Terms: []Term{{}}}, {Terms: []Term{{}, {}}}}
	for i := 0; i < 2000; i++ {
		cases = append(cases, tieDNF(rng), ToDNF(randomExpr(rng, 3)))
	}
	for _, d := range cases {
		if got, want := d.String(), joinString(d); got != want {
			t.Fatalf("DNF.String() = %q, want %q", got, want)
		}
		for _, term := range d.Terms {
			if got, want := term.String(), joinTermString(term); got != want {
				t.Fatalf("Term.String() = %q, want %q", got, want)
			}
		}
		if got, want := d.Labels(), mapLabels(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Labels() = %q, want %q", d, got, want)
		}
	}
	d := ToDNF(MustParse("(a & b & !c) | (d & e) | f"))
	if n := testing.AllocsPerRun(100, func() { _ = d.String() }); n != 1 {
		t.Errorf("DNF.String: %v allocs/op, want 1", n)
	}
}
