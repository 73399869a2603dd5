package boolexpr

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestEvalKleene(t *testing.T) {
	a := Assignment{"t": True, "f": False}
	cases := []struct {
		expr string
		want Value
	}{
		{"t", True},
		{"f", False},
		{"u", Unknown},
		{"!t", False},
		{"!f", True},
		{"!u", Unknown},
		{"t & t", True},
		{"t & f", False},
		{"t & u", Unknown},
		{"f & u", False}, // false dominates unknown in AND
		{"t | f", True},
		{"f | f", False},
		{"f | u", Unknown},
		{"t | u", True}, // true dominates unknown in OR
		{"(t & u) | t", True},
		{"!(t & f)", True},
		{"!(f | u)", Unknown},
	}
	for _, tc := range cases {
		e, err := Parse(tc.expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.expr, err)
		}
		if got := e.Eval(a); got != tc.want {
			t.Errorf("Eval(%q) = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestParseSynonymsAndPrecedence(t *testing.T) {
	e1 := MustParse("a && b || c AND NOT d")
	e2 := MustParse("(a & b) | (c & !d)")
	a := Assignment{"a": True, "b": False, "c": True, "d": False}
	if e1.Eval(a) != e2.Eval(a) {
		t.Error("synonym parse differs")
	}
	if e1.Eval(a) != True {
		t.Errorf("Eval = %v, want true", e1.Eval(a))
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "a &", "& a", "(a", "a)", "a b", "a @ b", "!"} {
		if _, err := Parse(s); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) err = %v, want ErrParse", s, err)
		}
	}
}

func TestLabelsOrder(t *testing.T) {
	e := MustParse("(b & a) | (c & a)")
	got := Labels(e)
	want := []string{"b", "a", "c"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Labels = %v, want %v", got, want)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"a",
		"!a",
		"a & b",
		"a | b & c",
		"(a | b) & c",
		"!(a & b) | c",
	} {
		e := MustParse(s)
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", e.String(), s, err)
		}
		// Compare on all assignments of the labels.
		if !equivalent(t, e, again) {
			t.Errorf("round trip of %q changed semantics: %q", s, e.String())
		}
	}
}

// equivalent exhaustively compares two expressions over all boolean
// assignments of their combined label set.
func equivalent(t *testing.T, e1, e2 Expr) bool {
	t.Helper()
	labelSet := make(map[string]bool)
	for _, l := range Labels(e1) {
		labelSet[l] = true
	}
	for _, l := range Labels(e2) {
		labelSet[l] = true
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	if len(labels) > 16 {
		t.Fatalf("too many labels for exhaustive check: %d", len(labels))
	}
	for mask := 0; mask < 1<<len(labels); mask++ {
		a := make(Assignment, len(labels))
		for i, l := range labels {
			a[l] = FromBool(mask&(1<<i) != 0)
		}
		if e1.Eval(a) != e2.Eval(a) {
			return false
		}
	}
	return true
}

// randomExpr builds a random expression over a small label alphabet.
func randomExpr(rng *rand.Rand, depth int) Expr {
	labels := []string{"a", "b", "c", "d", "e"}
	if depth == 0 || rng.Intn(3) == 0 {
		return Pred{Label: labels[rng.Intn(len(labels))]}
	}
	switch rng.Intn(3) {
	case 0:
		return Not{X: randomExpr(rng, depth-1)}
	case 1:
		n := 2 + rng.Intn(2)
		xs := make([]Expr, n)
		for i := range xs {
			xs[i] = randomExpr(rng, depth-1)
		}
		return And{Xs: xs}
	default:
		n := 2 + rng.Intn(2)
		xs := make([]Expr, n)
		for i := range xs {
			xs[i] = randomExpr(rng, depth-1)
		}
		return Or{Xs: xs}
	}
}

// Property: ToDNF preserves semantics on fully resolved assignments.
func TestDNFEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(rng, 3)
		d := ToDNF(e)
		if !equivalent(t, e, d.Expr()) {
			t.Fatalf("DNF not equivalent:\n  expr: %s\n  dnf:  %s", e, d)
		}
	}
}

func TestDNFSimplification(t *testing.T) {
	// Contradiction inside a term removes the term.
	d := ToDNF(MustParse("(a & !a) | b"))
	if len(d.Terms) != 1 || d.Terms[0].String() != "b" {
		t.Errorf("contradiction not removed: %s", d)
	}
	// Absorption: a | (a & b) == a.
	d = ToDNF(MustParse("a | (a & b)"))
	if len(d.Terms) != 1 || d.Terms[0].String() != "a" {
		t.Errorf("absorption failed: %s", d)
	}
	// Duplicate literal merged.
	d = ToDNF(MustParse("a & a & b"))
	if len(d.Terms) != 1 || len(d.Terms[0].Literals) != 2 {
		t.Errorf("duplicate literal kept: %s", d)
	}
	// Duplicate term removed.
	d = ToDNF(MustParse("(a & b) | (b & a)"))
	if len(d.Terms) != 1 {
		t.Errorf("duplicate term kept: %s", d)
	}
}

func TestDNFRouteExample(t *testing.T) {
	// The paper's route-finding query stays intact.
	d := ToDNF(MustParse("(viableA & viableB & viableC) | (viableD & viableE & viableF)"))
	if len(d.Terms) != 2 {
		t.Fatalf("terms = %d, want 2", len(d.Terms))
	}
	if got := len(d.Labels()); got != 6 {
		t.Errorf("labels = %d, want 6", got)
	}
}

func TestTermEvalAndLabels(t *testing.T) {
	term := Term{Literals: []Literal{{Label: "x"}, {Label: "y", Negated: true}, {Label: "x"}}}
	if v := term.Eval(Assignment{"x": True, "y": False}); v != True {
		t.Errorf("Eval = %v, want true", v)
	}
	if v := term.Eval(Assignment{"x": True}); v != Unknown {
		t.Errorf("Eval partial = %v, want unknown", v)
	}
	if v := term.Eval(Assignment{"y": True}); v != False {
		t.Errorf("Eval = %v, want false (negated literal)", v)
	}
	if got := term.Labels(); len(got) != 2 {
		t.Errorf("Labels = %v, want 2 distinct", got)
	}
}

func TestValueString(t *testing.T) {
	if Unknown.String() != "unknown" || True.String() != "true" || False.String() != "false" {
		t.Error("Value.String mismatch")
	}
}
