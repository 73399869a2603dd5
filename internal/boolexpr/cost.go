package boolexpr

import (
	"math"
	"sort"
	"time"
)

// Meta holds the per-condition metadata of Section III-A: retrieval cost
// (e.g. object size in bytes or MB), success probability (probability the underlying label is true), and data validity
// interval.
type Meta struct {
	// Cost is the retrieval cost of the evidence for this label, in
	// arbitrary units (the paper uses data size).
	Cost float64
	// ProbTrue is the prior probability that the label evaluates to true.
	ProbTrue float64
	// Validity is how long evidence for this label stays fresh.
	Validity time.Duration
}

// MetaTable maps label names to their metadata.
type MetaTable map[string]Meta

// Get returns the metadata for a label, with neutral defaults (cost 1,
// probability 0.5) if absent, so planning degrades gracefully when models
// are missing (Section II-A notes optimization may proceed without them).
func (m MetaTable) Get(label string) Meta {
	if meta, ok := m[label]; ok {
		return meta
	}
	return Meta{Cost: 1, ProbTrue: 0.5}
}

// probTrue is the probability a literal evaluates true.
func probTrue(l Literal, m MetaTable) float64 {
	p := clamp01(m.Get(l.Label).ProbTrue)
	if l.Negated {
		return 1 - p
	}
	return p
}

func clamp01(p float64) float64 {
	return math.Min(1, math.Max(0, p))
}

// ExpectedTermCost is the expected retrieval cost of evaluating the term's
// literals in the given order, short-circuiting as soon as a literal is
// false. Literal outcomes are treated as independent.
func ExpectedTermCost(t Term, m MetaTable, order []int) float64 {
	cost := 0.0
	pAllTrue := 1.0
	for _, idx := range order {
		l := t.Literals[idx]
		cost += pAllTrue * m.Get(l.Label).Cost
		pAllTrue *= probTrue(l, m)
	}
	return cost
}

// TermProbTrue is the probability the whole term evaluates true, assuming
// independent literals.
func TermProbTrue(t Term, m MetaTable) float64 {
	p := 1.0
	for _, l := range t.Literals {
		p *= probTrue(l, m)
	}
	return p
}

// identityOrder returns [0, 1, ..., n-1].
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// OrderTermGreedy returns the evaluation order for a term that sorts
// literals by descending short-circuit probability per unit cost,
// (1-p)/C — the rule of Section III-A. For independent literals this
// ordering minimizes expected cost (it is the classic "pipelined filter
// ordering" optimum). Ties break by original position for determinism.
func OrderTermGreedy(t Term, m MetaTable) []int {
	order := identityOrder(len(t.Literals))
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := t.Literals[order[a]], t.Literals[order[b]]
		ca := m.Get(la.Label).Cost
		cb := m.Get(lb.Label).Cost
		// Compare (1-pa)/ca > (1-pb)/cb without dividing (cost may be 0:
		// zero-cost literals go first).
		return (1-probTrue(la, m))*cb > (1-probTrue(lb, m))*ca
	})
	return order
}

// OrderTermBruteForce finds a minimum-expected-cost order by exhaustive
// permutation search. Exponential; intended for tests validating the
// greedy rule on small terms.
func OrderTermBruteForce(t Term, m MetaTable) ([]int, float64) {
	n := len(t.Literals)
	best := identityOrder(n)
	bestCost := ExpectedTermCost(t, m, best)
	perm := identityOrder(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if c := ExpectedTermCost(t, m, perm); c < bestCost {
				bestCost = c
				best = append([]int(nil), perm...)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best, bestCost
}

// QueryPlan is a complete evaluation plan for a DNF query: the order in
// which to try terms, and within each term the order in which to retrieve
// evidence.
type QueryPlan struct {
	// TermOrder lists term indices in evaluation order.
	TermOrder []int
	// LiteralOrder[i] is the literal evaluation order for term i (indexed
	// by the DNF's term index, not plan position).
	LiteralOrder [][]int
}

// ExpectedQueryCost is the expected total retrieval cost of executing plan
// on d: terms are tried in order until one evaluates true; a false term
// short-circuits as soon as one of its literals is false. Terms are
// treated as independent and label reuse across terms is ignored (an
// upper bound; the scheduler deduplicates shared fetches at run time).
func ExpectedQueryCost(d DNF, m MetaTable, plan QueryPlan) float64 {
	cost := 0.0
	pAllPriorFalse := 1.0
	for _, ti := range plan.TermOrder {
		t := d.Terms[ti]
		cost += pAllPriorFalse * ExpectedTermCost(t, m, plan.LiteralOrder[ti])
		pAllPriorFalse *= 1 - TermProbTrue(t, m)
	}
	return cost
}

// GreedyPlan builds the Section III-A plan: literals within each term by
// descending (1-p)/C, terms by descending probability-of-success per unit
// expected cost (the OR-side short-circuit rule).
func GreedyPlan(d DNF, m MetaTable) QueryPlan {
	litOrder := make([][]int, len(d.Terms))
	termCost := make([]float64, len(d.Terms))
	termProb := make([]float64, len(d.Terms))
	for i, t := range d.Terms {
		litOrder[i] = OrderTermGreedy(t, m)
		termCost[i] = ExpectedTermCost(t, m, litOrder[i])
		termProb[i] = TermProbTrue(t, m)
	}
	termOrder := identityOrder(len(d.Terms))
	sort.SliceStable(termOrder, func(a, b int) bool {
		ia, ib := termOrder[a], termOrder[b]
		// Compare p_a/c_a > p_b/c_b without dividing.
		return termProb[ia]*termCost[ib] > termProb[ib]*termCost[ia]
	})
	return QueryPlan{TermOrder: termOrder, LiteralOrder: litOrder}
}

// NaivePlan evaluates terms and literals in their original order, used as
// the comprehensive-retrieval baseline for comparisons.
func NaivePlan(d DNF) QueryPlan {
	litOrder := make([][]int, len(d.Terms))
	for i, t := range d.Terms {
		litOrder[i] = identityOrder(len(t.Literals))
	}
	return QueryPlan{TermOrder: identityOrder(len(d.Terms)), LiteralOrder: litOrder}
}

// NextUnknown returns, following the plan, the first literal whose label is
// still Unknown within the first non-false term that is still undecided.
// It returns ok=false when the query is already resolved or no literal can
// advance it. This is the step function the per-query retrieval loop uses.
func NextUnknown(d DNF, a Assignment, plan QueryPlan) (Literal, bool) {
	for _, ti := range plan.TermOrder {
		t := d.Terms[ti]
		switch t.Eval(a) {
		case True:
			return Literal{}, false // query resolved true
		case False:
			continue // short-circuited; try next course of action
		}
		for _, li := range plan.LiteralOrder[ti] {
			l := t.Literals[li]
			if a.Get(l.Label) == Unknown {
				return l, true
			}
		}
	}
	return Literal{}, false
}
