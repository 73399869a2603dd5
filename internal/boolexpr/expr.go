// Package boolexpr implements the paper's decision-logic expressions
// (Section II-A, III): Boolean expressions over predicates ("labels"),
// three-valued evaluation against partially known state, conversion to
// disjunctive normal form (OR of ANDs), and the short-circuit cost analysis
// of Section III-A that drives decision-driven retrieval scheduling.
package boolexpr

import "strings"

// Value is the three-valued logic value of a label or expression. The zero
// value is Unknown on purpose: unset state is "not yet resolved".
type Value int

const (
	// Unknown means the predicate has not been resolved (or its evidence
	// is stale).
	Unknown Value = iota
	// True means the predicate holds.
	True
	// False means the predicate does not hold.
	False
)

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// FromBool converts a resolved boolean to a Value.
func FromBool(b bool) Value {
	if b {
		return True
	}
	return False
}

// Assignment maps label names to their current values. Missing labels are
// Unknown.
type Assignment map[string]Value

// Get returns the value for label, Unknown if absent.
func (a Assignment) Get(label string) Value {
	if a == nil {
		return Unknown
	}
	return a[label]
}

// Expr is a node of a decision-logic expression tree.
type Expr interface {
	// Eval computes the three-valued result under the assignment,
	// propagating Unknown per Kleene logic (e.g. false AND unknown is
	// false).
	Eval(a Assignment) Value
	// Labels appends the distinct labels referenced, in first-appearance
	// order, to dst.
	labels(seen map[string]bool, dst *[]string)
	// String renders the expression in parseable syntax.
	String() string
}

// Pred is a leaf predicate referencing a label.
type Pred struct {
	// Label is the label name whose value resolves this predicate.
	Label string
}

// Not negates a subexpression.
type Not struct {
	// X is the negated subexpression.
	X Expr
}

// And is a conjunction of subexpressions.
type And struct {
	// Xs are the conjuncts; an empty And is true.
	Xs []Expr
}

// Or is a disjunction of subexpressions.
type Or struct {
	// Xs are the disjuncts; an empty Or is false.
	Xs []Expr
}

var (
	_ Expr = Pred{}
	_ Expr = Not{}
	_ Expr = And{}
	_ Expr = Or{}
)

// Eval implements Expr.
func (p Pred) Eval(a Assignment) Value { return a.Get(p.Label) }

// Eval implements Expr.
func (n Not) Eval(a Assignment) Value {
	switch n.X.Eval(a) {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Eval implements Expr with Kleene three-valued AND: False dominates,
// then Unknown, else True.
func (e And) Eval(a Assignment) Value {
	result := True
	for _, x := range e.Xs {
		switch x.Eval(a) {
		case False:
			return False
		case Unknown:
			result = Unknown
		}
	}
	return result
}

// Eval implements Expr with Kleene three-valued OR: True dominates, then
// Unknown, else False.
func (e Or) Eval(a Assignment) Value {
	result := False
	for _, x := range e.Xs {
		switch x.Eval(a) {
		case True:
			return True
		case Unknown:
			result = Unknown
		}
	}
	return result
}

func (p Pred) labels(seen map[string]bool, dst *[]string) {
	if !seen[p.Label] {
		seen[p.Label] = true
		*dst = append(*dst, p.Label)
	}
}

func (n Not) labels(seen map[string]bool, dst *[]string) { n.X.labels(seen, dst) }

func (e And) labels(seen map[string]bool, dst *[]string) {
	for _, x := range e.Xs {
		x.labels(seen, dst)
	}
}

func (e Or) labels(seen map[string]bool, dst *[]string) {
	for _, x := range e.Xs {
		x.labels(seen, dst)
	}
}

// Labels returns the distinct labels referenced by e in first-appearance
// order.
func Labels(e Expr) []string {
	var out []string
	e.labels(make(map[string]bool), &out)
	return out
}

// String implements Expr.
func (p Pred) String() string { return p.Label }

// String implements Expr.
func (n Not) String() string {
	switch n.X.(type) {
	case Pred:
		return "!" + n.X.String()
	default:
		return "!(" + n.X.String() + ")"
	}
}

// String implements Expr.
func (e And) String() string { return joinExprs(e.Xs, " & ", true) }

// String implements Expr.
func (e Or) String() string { return joinExprs(e.Xs, " | ", false) }

func joinExprs(xs []Expr, sep string, parenOr bool) string {
	if len(xs) == 0 {
		if parenOr {
			return "true"
		}
		return "false"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		s := x.String()
		if _, isOr := x.(Or); isOr && parenOr {
			s = "(" + s + ")"
		}
		if _, isAnd := x.(And); isAnd && !parenOr {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}
