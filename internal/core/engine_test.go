package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"athena/internal/boolexpr"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newEngine(expr string, deadline time.Duration) *Engine {
	return NewEngine("q1", boolexpr.ToDNF(boolexpr.MustParse(expr)), t0.Add(deadline), nil)
}

func TestEngineResolvesTrue(t *testing.T) {
	e := newEngine("(a & b) | c", time.Minute)
	if e.Step(t0) != Pending {
		t.Fatal("fresh engine not pending")
	}
	if err := e.Set("a", true, t0.Add(time.Minute), "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	if e.Step(t0.Add(time.Second)) != Pending {
		t.Fatal("partial evidence resolved")
	}
	if err := e.Set("b", true, t0.Add(time.Minute), "s2", "ann"); err != nil {
		t.Fatal(err)
	}
	if got := e.Step(t0.Add(2 * time.Second)); got != ResolvedTrue {
		t.Fatalf("Step = %v, want resolved-true", got)
	}
	if !e.ResolvedAt().Equal(t0.Add(2 * time.Second)) {
		t.Errorf("ResolvedAt = %v", e.ResolvedAt())
	}
	// Terminal status sticky even if evidence later expires.
	if got := e.Step(t0.Add(time.Hour)); got != ResolvedTrue {
		t.Errorf("post-expiry Step = %v", got)
	}
}

func TestEngineResolvesFalseByShortCircuit(t *testing.T) {
	e := newEngine("(a & b) | (c & d)", time.Minute)
	if err := e.Set("a", false, t0.Add(time.Minute), "", ""); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("c", false, t0.Add(time.Minute), "", ""); err != nil {
		t.Fatal(err)
	}
	if got := e.Step(t0); got != ResolvedFalse {
		t.Fatalf("Step = %v, want resolved-false (b and d short-circuited)", got)
	}
}

func TestEngineDeadline(t *testing.T) {
	e := newEngine("a", time.Second)
	if got := e.Step(t0.Add(2 * time.Second)); got != Expired {
		t.Fatalf("Step past deadline = %v", got)
	}
	// Late evidence does not revive it.
	if err := e.Set("a", true, t0.Add(time.Hour), "", ""); err != nil {
		t.Fatal(err)
	}
	if got := e.Step(t0.Add(3 * time.Second)); got != Expired {
		t.Errorf("Step = %v, want expired sticky", got)
	}
}

func TestEngineFreshnessAtDecisionTime(t *testing.T) {
	// Condition (ii): evidence must be fresh when the decision is made.
	e := newEngine("a & b", time.Minute)
	if err := e.Set("a", true, t0.Add(2*time.Second), "", ""); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("b", true, t0.Add(time.Minute), "", ""); err != nil {
		t.Fatal(err)
	}
	// At t0+1s both fresh: resolves.
	if got := e.Step(t0.Add(time.Second)); got != ResolvedTrue {
		t.Fatalf("Step = %v", got)
	}

	// Same evidence but checked only after a expired: not resolvable.
	e2 := newEngine("a & b", time.Minute)
	if err := e2.Set("a", true, t0.Add(2*time.Second), "", ""); err != nil {
		t.Fatal(err)
	}
	if err := e2.Set("b", true, t0.Add(time.Minute), "", ""); err != nil {
		t.Fatal(err)
	}
	if got := e2.Step(t0.Add(10 * time.Second)); got != Pending {
		t.Fatalf("Step with stale a = %v, want pending", got)
	}
	// And a is fetchable again.
	if next, ok := e2.NextLabel(t0.Add(10 * time.Second)); !ok || next != "a" {
		t.Errorf("NextLabel = %q %v, want a (refetch)", next, ok)
	}
}

func TestEngineSetUnknownLabel(t *testing.T) {
	e := newEngine("a", time.Minute)
	if err := e.Set("zz", true, t0.Add(time.Minute), "", ""); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("err = %v, want ErrUnknownLabel", err)
	}
}

// TestEngineLabelSet: the engine works its label set out once. Labels is
// that set — sorted, the same slice on every call, equal to what the
// expression reports — and References and Set answer from it, wherever in
// the expression a label sits and whichever way it is negated.
func TestEngineLabelSet(t *testing.T) {
	e := newEngine("(m & b) | (!z & b) | (c & !m)", time.Minute)
	got := e.Labels()
	if want := []string{"b", "c", "m", "z"}; !slices.Equal(got, want) || !slices.Equal(got, e.Expr().Labels()) {
		t.Fatalf("Labels = %v, want %v = Expr().Labels() %v", got, want, e.Expr().Labels())
	}
	if again := e.Labels(); &again[0] != &got[0] || len(again) != len(got) {
		t.Error("Labels built a new slice on the second call")
	}
	for _, c := range []struct {
		label string
		want  bool
	}{
		{"m", true},
		{"z", true}, // only ever negated
		{"c", true}, // only in the last term
		{"a", false},
		{"bb", false},
		{"zz", false},
		{"", false},
	} {
		if e.References(c.label) != c.want {
			t.Errorf("References(%q) = %v, want %v", c.label, !c.want, c.want)
		}
		if err := e.Set(c.label, true, t0.Add(time.Minute), "", ""); errors.Is(err, ErrUnknownLabel) == c.want {
			t.Errorf("Set(%q) = %v; referenced: %v", c.label, err, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = e.References("z"); _ = e.Labels() }); allocs != 0 {
		t.Errorf("References + Labels allocate %v times a call", allocs)
	}
}

func TestEngineKeepsLongerLivedEvidence(t *testing.T) {
	e := newEngine("a & b", time.Minute)
	if err := e.Set("a", true, t0.Add(30*time.Second), "s1", ""); err != nil {
		t.Fatal(err)
	}
	// A shorter-lived same-value entry must not displace it.
	if err := e.Set("a", true, t0.Add(5*time.Second), "s2", ""); err != nil {
		t.Fatal(err)
	}
	en, ok := e.Entry("a")
	if !ok || !en.Expires.Equal(t0.Add(30*time.Second)) || en.Source != "s1" {
		t.Errorf("Entry = %+v %v", en, ok)
	}
	// A value change always replaces.
	if err := e.Set("a", false, t0.Add(10*time.Second), "s3", ""); err != nil {
		t.Fatal(err)
	}
	en, _ = e.Entry("a")
	if en.Value || en.Source != "s3" {
		t.Errorf("Entry after flip = %+v", en)
	}
}

func TestNextLabelFollowsShortCircuitPlan(t *testing.T) {
	meta := boolexpr.MetaTable{
		"cheapLikely": {Cost: 1, ProbTrue: 0.95},
		"other":       {Cost: 1, ProbTrue: 0.95},
		"costly":      {Cost: 1000, ProbTrue: 0.05},
		"costly2":     {Cost: 1000, ProbTrue: 0.05},
	}
	expr := boolexpr.ToDNF(boolexpr.MustParse("(costly & costly2) | (cheapLikely & other)"))
	e := NewEngine("q", expr, t0.Add(time.Minute), meta)
	next, ok := e.NextLabel(t0)
	if !ok || (next != "cheapLikely" && next != "other") {
		t.Errorf("NextLabel = %q, want the cheap likely term first", next)
	}
}

func TestUnknownLabelsSkipsFalseTerms(t *testing.T) {
	e := newEngine("(a & b) | (c & d)", time.Minute)
	if err := e.Set("a", false, t0.Add(time.Minute), "", ""); err != nil {
		t.Fatal(err)
	}
	got := e.UnknownLabels(t0)
	if len(got) != 2 {
		t.Fatalf("UnknownLabels = %v", got)
	}
	for _, l := range got {
		if l == "b" {
			t.Error("short-circuited label still listed")
		}
	}
}

func TestNextExpiryTracksLoadBearingEntries(t *testing.T) {
	e := newEngine("(a & b) | (c & d)", time.Minute)
	if err := e.Set("a", true, t0.Add(10*time.Second), "", ""); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("c", false, t0.Add(5*time.Second), "", ""); err != nil {
		t.Fatal(err)
	}
	// c's term is ruled out while c is fresh, so c's expiry is not
	// load-bearing... but after c expires the term revives. The engine
	// reports the earliest expiry among entries in live terms; with c
	// fresh its term evaluates false, so only a (10s) counts... c itself
	// expires sooner (5s) but its term is currently false.
	exp, ok := e.NextExpiry(t0)
	if !ok || !exp.Equal(t0.Add(10*time.Second)) {
		t.Errorf("NextExpiry = %v %v, want a's 10s", exp, ok)
	}
	// Past c's expiry, its term is live again; a is the only fresh entry.
	exp, ok = e.NextExpiry(t0.Add(6 * time.Second))
	if !ok || !exp.Equal(t0.Add(10*time.Second)) {
		t.Errorf("NextExpiry after c stale = %v %v", exp, ok)
	}
	// Nothing fresh: no expiry.
	if _, ok := e.NextExpiry(t0.Add(time.Minute)); ok {
		t.Error("NextExpiry with all stale returned true")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Pending: "pending", ResolvedTrue: "resolved-true",
		ResolvedFalse: "resolved-false", Expired: "expired",
	} {
		if s.String() != want {
			t.Errorf("String(%d) = %q", int(s), s.String())
		}
		if got := s.Resolved(); got != strings.HasPrefix(want, "resolved-") {
			t.Errorf("%v.Resolved() = %v", s, got)
		}
	}
}
