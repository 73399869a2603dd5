package athena

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"athena/internal/boolexpr"
)

// sliceStablePlanFor is planFor's plan as it was built before planning
// read each label's metadata once: boolexpr's greedy plan with a
// MetaTable lookup per comparison, and for lvf and lvfl each term's
// literals re-sorted by a per-term validity slice, both with
// sort.SliceStable.
func sliceStablePlanFor(scheme Scheme, expr boolexpr.DNF, m boolexpr.MetaTable) boolexpr.QueryPlan {
	pTrue := func(l boolexpr.Literal) float64 {
		p := min(1, max(0, m.Get(l.Label).ProbTrue))
		if l.Negated {
			return 1 - p
		}
		return p
	}
	identity := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	litOrder := make([][]int, len(expr.Terms))
	termCost := make([]float64, len(expr.Terms))
	termProb := make([]float64, len(expr.Terms))
	for i, t := range expr.Terms {
		order := identity(len(t.Literals))
		sort.SliceStable(order, func(a, b int) bool {
			la, lb := t.Literals[order[a]], t.Literals[order[b]]
			return (1-pTrue(la))*m.Get(lb.Label).Cost > (1-pTrue(lb))*m.Get(la.Label).Cost
		})
		litOrder[i] = order
		termCost[i] = boolexpr.ExpectedTermCost(t, m, order)
		termProb[i] = boolexpr.TermProbTrue(t, m)
	}
	termOrder := identity(len(expr.Terms))
	sort.SliceStable(termOrder, func(a, b int) bool {
		ia, ib := termOrder[a], termOrder[b]
		return termProb[ia]*termCost[ib] > termProb[ib]*termCost[ia]
	})
	if scheme == SchemeLVF || scheme == SchemeLVFL {
		for ti, t := range expr.Terms {
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
	return boolexpr.QueryPlan{TermOrder: termOrder, LiteralOrder: litOrder}
}

// TestPlanForMatchesSliceStablePlanner runs planFor under every scheme
// against the planner it replaced, on random DNFs over 12 labels priced
// from a few values each (zero cost, probabilities outside [0, 1], equal
// validities), some labels unpriced, negated literals, and terms and
// literal lists past the stable sort's 20-element insertion blocks.
func TestPlanForMatchesSliceStablePlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for trial := 0; trial < 500; trial++ {
		meta := make(boolexpr.MetaTable)
		for _, l := range labels[:8] {
			meta[l] = boolexpr.Meta{
				Cost:     []float64{0, 1, 1, 3}[rng.Intn(4)],
				ProbTrue: []float64{-0.5, 0, 0.5, 0.5, 1, 2}[rng.Intn(6)],
				Validity: []time.Duration{0, time.Second, time.Second, time.Hour}[rng.Intn(4)],
			}
		}
		width := 4
		if trial%5 == 0 {
			width = 30
		}
		var expr boolexpr.DNF
		for i := rng.Intn(width); i >= 0; i-- {
			var term boolexpr.Term
			for j := rng.Intn(width); j >= 0; j-- {
				term.Literals = append(term.Literals, boolexpr.Literal{
					Label: labels[rng.Intn(len(labels))], Negated: rng.Intn(3) == 0,
				})
			}
			expr.Terms = append(expr.Terms, term)
		}
		for _, scheme := range Schemes() {
			n := &Node{scheme: scheme, meta: meta, dir: NewDirectory(nil)}
			got := n.planFor(expr, expr.String())
			if want := sliceStablePlanFor(scheme, expr, meta); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d scheme %s on %s:\ngot  %v\nwant %v", trial, scheme, expr, got, want)
			}
		}
	}
}
