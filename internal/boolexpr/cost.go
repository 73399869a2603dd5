package boolexpr

import (
	"math"
	"slices"
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
	keys := appendLitKeys(nil, t, m)
	order := identityOrder(len(keys))
	sortGreedy(order, keys)
	return order
}

// litKey is what planning reads of one literal, looked up once: its
// retrieval cost, the probability it reads true (probTrue) and its
// validity.
type litKey struct {
	cost, pTrue float64
	validity    time.Duration
}

// appendLitKeys appends the keys of t's literals to keys, in literal order.
func appendLitKeys(keys []litKey, t Term, m MetaTable) []litKey {
	for _, l := range t.Literals {
		meta := m.Get(l.Label)
		p := clamp01(meta.ProbTrue)
		if l.Negated {
			p = 1 - p
		}
		keys = append(keys, litKey{cost: meta.Cost, pTrue: p, validity: meta.Validity})
	}
	return keys
}

// before is a slices.SortStableFunc comparison from a strict "a goes
// first": negative exactly when it holds. The stable sort only ever asks
// whether cmp < 0, and it is the insertion-sort and symMerge of
// sort.SliceStable, so it makes the same moves a less function would, ties
// included.
func before(first bool) int {
	if first {
		return -1
	}
	return 0
}

// sortGreedy stably sorts order, literal indices into keys, by descending
// (1-p)/C, comparing (1-pa)/ca > (1-pb)/cb without dividing (cost may be
// 0: zero-cost literals go first).
func sortGreedy(order []int, keys []litKey) {
	slices.SortStableFunc(order, func(a, b int) int {
		return before((1-keys[a].pTrue)*keys[b].cost > (1-keys[b].pTrue)*keys[a].cost)
	})
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
	return plan(d, m, false)
}

// ValidityFirstPlan is GreedyPlan with each term's literals then re-sorted,
// stably, by descending validity — the longest-validity-first retrieval
// order of Section IV-A. Terms keep GreedyPlan's order, which the greedy
// literal order prices.
func ValidityFirstPlan(d DNF, m MetaTable) QueryPlan {
	return plan(d, m, true)
}

// plan builds GreedyPlan, or ValidityFirstPlan when validityFirst is set.
// It reads each literal's metadata once, and one slice backs the term order
// and every literal order.
func plan(d DNF, m MetaTable, validityFirst bool) QueryPlan {
	nlit := 0
	for _, t := range d.Terms {
		nlit += len(t.Literals)
	}
	nt := len(d.Terms)
	orders := make([]int, nt+nlit) // the term order, then each term's literal order
	litOrder := make([][]int, nt)
	// Scratch, on the stack at the sizes queries have; a larger query's
	// spills to the heap. terms[i] is term i's expected cost under its
	// greedy literal order and its probability of being true.
	var keyBuf [32]litKey
	var termBuf [8]struct{ cost, prob float64 }
	keys, terms := keyBuf[:0], termBuf[:0]
	at := nt
	for i, t := range d.Terms {
		from := len(keys)
		keys = appendLitKeys(keys, t, m)
		k := keys[from:]
		order := orders[at : at+len(k) : at+len(k)]
		at += len(k)
		for j := range order {
			order[j] = j
		}
		sortGreedy(order, k)
		// The folds of ExpectedTermCost and TermProbTrue, on the keys.
		cost, pAllTrue := 0.0, 1.0
		for _, j := range order {
			cost += pAllTrue * k[j].cost
			pAllTrue *= k[j].pTrue
		}
		prob := 1.0
		for _, key := range k {
			prob *= key.pTrue
		}
		terms = append(terms, struct{ cost, prob float64 }{cost, prob})
		if validityFirst {
			slices.SortStableFunc(order, func(a, b int) int {
				return before(k[a].validity > k[b].validity)
			})
		}
		litOrder[i] = order
	}
	termOrder := orders[:nt:nt]
	for i := range termOrder {
		termOrder[i] = i
	}
	slices.SortStableFunc(termOrder, func(a, b int) int {
		// Compare p_a/c_a > p_b/c_b without dividing.
		return before(terms[a].prob*terms[b].cost > terms[b].prob*terms[a].cost)
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
