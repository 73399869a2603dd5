package boolexpr

import (
	"slices"
	"sort"
	"strings"
)

// Literal is a possibly negated label inside a DNF term.
type Literal struct {
	// Label is the referenced label name.
	Label string
	// Negated marks a "NOT label" literal.
	Negated bool
}

// String renders the literal.
func (l Literal) String() string {
	if l.Negated {
		return "!" + l.Label
	}
	return l.Label
}

// Eval resolves the literal under an assignment.
func (l Literal) Eval(a Assignment) Value {
	v := a.Get(l.Label)
	if !l.Negated {
		return v
	}
	switch v {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Term is a conjunction of literals: one alternative course of action
// (an a_i in the paper's query form).
type Term struct {
	// Literals are the ANDed conditions (the b_ij of the paper).
	Literals []Literal
}

// String renders the term.
func (t Term) String() string {
	var b strings.Builder
	b.Grow(t.textLen())
	t.writeTo(&b)
	return b.String()
}

// textLen is the length of String's result.
func (t Term) textLen() int {
	n := max(0, 3*(len(t.Literals)-1))
	for _, l := range t.Literals {
		n += len(l.Label)
		if l.Negated {
			n++
		}
	}
	return n
}

// writeTo writes String's result to b.
func (t Term) writeTo(b *strings.Builder) {
	for i, l := range t.Literals {
		if i > 0 {
			b.WriteString(" & ")
		}
		if l.Negated {
			b.WriteByte('!')
		}
		b.WriteString(l.Label)
	}
}

// Eval computes the three-valued conjunction of the term's literals.
func (t Term) Eval(a Assignment) Value {
	result := True
	for _, l := range t.Literals {
		switch l.Eval(a) {
		case False:
			return False
		case Unknown:
			result = Unknown
		}
	}
	return result
}

// Labels returns the distinct labels in the term, in literal order.
func (t Term) Labels() []string {
	seen := make(map[string]bool, len(t.Literals))
	out := make([]string, 0, len(t.Literals))
	for _, l := range t.Literals {
		if !seen[l.Label] {
			seen[l.Label] = true
			out = append(out, l.Label)
		}
	}
	return out
}

// DNF is a decision query in disjunctive normal form: an OR of terms, each
// an alternative course of action.
type DNF struct {
	// Terms are the alternative courses of action.
	Terms []Term
}

// String renders the DNF as a parseable expression: the terms joined by
// " | ", each in parentheses when there are several and it has several
// literals. It is the node's plan-cache key, so it is built in one
// allocation.
func (d DNF) String() string {
	if len(d.Terms) == 0 {
		return "false"
	}
	paren := func(t Term) bool { return len(d.Terms) > 1 && len(t.Literals) > 1 }
	n := 3 * (len(d.Terms) - 1)
	for _, t := range d.Terms {
		n += t.textLen()
		if paren(t) {
			n += 2
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i, t := range d.Terms {
		if i > 0 {
			b.WriteString(" | ")
		}
		if paren(t) {
			b.WriteByte('(')
			t.writeTo(&b)
			b.WriteByte(')')
		} else {
			t.writeTo(&b)
		}
	}
	return b.String()
}

// Eval computes the three-valued disjunction over the terms.
func (d DNF) Eval(a Assignment) Value {
	result := False
	for _, t := range d.Terms {
		switch t.Eval(a) {
		case True:
			return True
		case Unknown:
			result = Unknown
		}
	}
	return result
}

// Expr converts the DNF back to an expression tree.
func (d DNF) Expr() Expr {
	ors := make([]Expr, 0, len(d.Terms))
	for _, t := range d.Terms {
		ands := make([]Expr, 0, len(t.Literals))
		for _, l := range t.Literals {
			var e Expr = Pred{Label: l.Label}
			if l.Negated {
				e = Not{X: e}
			}
			ands = append(ands, e)
		}
		if len(ands) == 1 {
			ors = append(ors, ands[0])
		} else {
			ors = append(ors, And{Xs: ands})
		}
	}
	if len(ors) == 1 {
		return ors[0]
	}
	return Or{Xs: ors}
}

// Labels returns the distinct labels across all terms, sorted.
func (d DNF) Labels() []string {
	n := 0
	for _, t := range d.Terms {
		n += len(t.Literals)
	}
	out := make([]string, 0, n)
	for _, t := range d.Terms {
		for _, l := range t.Literals {
			out = append(out, l.Label)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ToDNF converts an arbitrary expression to disjunctive normal form:
// negations pushed to leaves (negation normal form), then distribution of
// AND over OR, then simplification (contradictory terms dropped, duplicate
// literals merged, absorbed/duplicate terms removed). The result evaluates
// identically on fully resolved assignments.
func ToDNF(e Expr) DNF {
	terms := dnfRec(nnf(e, false))
	return simplify(DNF{Terms: terms})
}

// nnf pushes negations down to predicates. neg tracks whether the current
// subtree is under an odd number of negations.
func nnf(e Expr, neg bool) Expr {
	switch v := e.(type) {
	case Pred:
		if neg {
			return Not{X: v}
		}
		return v
	case Not:
		return nnf(v.X, !neg)
	case And:
		xs := make([]Expr, len(v.Xs))
		for i, x := range v.Xs {
			xs[i] = nnf(x, neg)
		}
		if neg {
			return Or{Xs: xs}
		}
		return And{Xs: xs}
	case Or:
		xs := make([]Expr, len(v.Xs))
		for i, x := range v.Xs {
			xs[i] = nnf(x, neg)
		}
		if neg {
			return And{Xs: xs}
		}
		return Or{Xs: xs}
	default:
		return e
	}
}

// dnfRec converts an NNF expression into a list of terms.
func dnfRec(e Expr) []Term {
	switch v := e.(type) {
	case Pred:
		return []Term{{Literals: []Literal{{Label: v.Label}}}}
	case Not:
		p, ok := v.X.(Pred)
		if !ok {
			// NNF guarantees Not only wraps Pred; fall back defensively.
			return dnfRec(nnf(v, false))
		}
		return []Term{{Literals: []Literal{{Label: p.Label, Negated: true}}}}
	case Or:
		var out []Term
		for _, x := range v.Xs {
			out = append(out, dnfRec(x)...)
		}
		return out
	case And:
		// Cross product of the children's term lists.
		out := []Term{{}}
		for _, x := range v.Xs {
			sub := dnfRec(x)
			next := make([]Term, 0, len(out)*len(sub))
			for _, a := range out {
				for _, b := range sub {
					merged := make([]Literal, 0, len(a.Literals)+len(b.Literals))
					merged = append(merged, a.Literals...)
					merged = append(merged, b.Literals...)
					next = append(next, Term{Literals: merged})
				}
			}
			out = next
		}
		return out
	default:
		return nil
	}
}

// simplify removes contradictions, duplicate literals, duplicate terms, and
// absorbed terms (a term that is a superset of another is redundant).
func simplify(d DNF) DNF {
	kept := make([]Term, 0, len(d.Terms))
	sets := make([]map[Literal]bool, 0, len(d.Terms))

termLoop:
	for _, t := range d.Terms {
		set := make(map[Literal]bool, len(t.Literals))
		for _, l := range t.Literals {
			if set[Literal{Label: l.Label, Negated: !l.Negated}] {
				continue termLoop // x & !x: contradiction
			}
			set[l] = true
		}
		lits := make([]Literal, 0, len(set))
		for l := range set {
			lits = append(lits, l)
		}
		sort.Slice(lits, func(i, j int) bool {
			if lits[i].Label != lits[j].Label {
				return lits[i].Label < lits[j].Label
			}
			return !lits[i].Negated && lits[j].Negated
		})
		kept = append(kept, Term{Literals: lits})
		sets = append(sets, set)
	}

	// Absorption: drop any term whose literal set is a superset of another
	// term's. This also removes exact duplicates (keep the earlier one).
	out := make([]Term, 0, len(kept))
	for i := range kept {
		absorbed := false
		for j := range kept {
			if i == j {
				continue
			}
			if len(sets[j]) > len(sets[i]) {
				continue
			}
			if len(sets[j]) == len(sets[i]) && j > i {
				continue // equal sets: only the earlier survives
			}
			if isSubset(sets[j], sets[i]) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, kept[i])
		}
	}
	return DNF{Terms: out}
}

func isSubset(small, big map[Literal]bool) bool {
	for l := range small {
		if !big[l] {
			return false
		}
	}
	return true
}
