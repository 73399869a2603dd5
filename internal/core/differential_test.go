package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"athena/internal/boolexpr"
)

// refEngine is the map-based engine the index-space one replaced, kept as
// the reference: held evidence in a map keyed by label, every question
// answered over a fresh boolexpr.Assignment by the boolexpr evaluators.
// set, assignment, unknownLabels and nextExpiry are the replaced methods'
// bodies verbatim; wanted is what the node's requestObject did with
// UnknownLabels.
type refEngine struct {
	expr    boolexpr.DNF
	plan    boolexpr.QueryPlan
	entries map[string]Entry
}

func (e *refEngine) set(label string, value bool, expires time.Time, source, annotator string) {
	if prev, ok := e.entries[label]; ok && prev.Value == value && prev.Expires.After(expires) {
		return
	}
	e.entries[label] = Entry{Value: value, Expires: expires, Source: source, Annotator: annotator}
}

func (e *refEngine) assignment(now time.Time) boolexpr.Assignment {
	a := make(boolexpr.Assignment, len(e.entries))
	for l, en := range e.entries {
		if !now.After(en.Expires) {
			a[l] = boolexpr.FromBool(en.Value)
		}
	}
	return a
}

func (e *refEngine) unknownLabels(now time.Time) []string {
	a := e.assignment(now)
	var out []string
	seen := make(map[string]bool)
	for _, ti := range e.plan.TermOrder {
		t := e.expr.Terms[ti]
		if t.Eval(a) == boolexpr.False {
			continue
		}
		for _, li := range e.plan.LiteralOrder[ti] {
			l := t.Literals[li].Label
			if a.Get(l) == boolexpr.Unknown && !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}

func (e *refEngine) nextExpiry(now time.Time) (time.Time, bool) {
	a := e.assignment(now)
	var (
		best  time.Time
		found bool
	)
	for _, ti := range e.plan.TermOrder {
		t := e.expr.Terms[ti]
		if t.Eval(a) == boolexpr.False {
			continue
		}
		for _, lit := range t.Literals {
			en, ok := e.entries[lit.Label]
			if !ok || !en.Expires.After(now) {
				continue
			}
			if !found || en.Expires.Before(best) {
				best = en.Expires
				found = true
			}
		}
	}
	return best, found
}

func (e *refEngine) wanted(labels []string, now time.Time) []string {
	unknown := make(map[string]bool)
	for _, l := range e.unknownLabels(now) {
		unknown[l] = true
	}
	var want []string
	for _, l := range labels {
		if unknown[l] {
			want = append(want, l)
		}
	}
	return want
}

// evidence is one Set call of a generated scenario.
type evidence struct {
	label   string
	value   bool
	expires time.Time
	source  string
}

// scenario is one generated query and the evidence that arrives for it.
type scenario struct {
	expr     boolexpr.DNF
	plan     boolexpr.QueryPlan
	deadline time.Time
	sets     []evidence
}

// after builds the engine and the reference with the first k pieces of
// evidence applied. A fresh pair per probe, because Step is sticky: an
// engine that has resolved once answers every later probe from that.
func (s scenario) after(k int) (*Engine, *refEngine) {
	e := NewEngineWithPlan("q", s.expr, s.deadline, nil, s.plan)
	ref := &refEngine{expr: s.expr, plan: s.plan, entries: make(map[string]Entry)}
	for _, ev := range s.sets[:k] {
		if err := e.Set(ev.label, ev.value, ev.expires, ev.source, "ann"); err != nil {
			panic(err) // generated from the expression's own labels
		}
		ref.set(ev.label, ev.value, ev.expires, ev.source, "ann")
	}
	return e, ref
}

// genScenario draws 1–6 terms of 1–8 literals over a pool of ten labels
// (so terms share labels, under either polarity, and a term may repeat or
// contradict a literal — ToDNF would simplify those away, the engine must
// still agree with the reference on them), a random plan (so plan order is
// not label order), and up to twelve Sets whose expiries fall on a
// one-second grid around t0: ties, evidence stale on arrival, and re-sets
// of the same label with the same or the other value and a shorter or a
// longer validity all occur.
func genScenario(rng *rand.Rand) scenario {
	pool := make([]string, 10)
	for i := range pool {
		pool[i] = fmt.Sprintf("l%d", i)
	}
	var s scenario
	s.expr.Terms = make([]boolexpr.Term, 1+rng.Intn(6))
	for ti := range s.expr.Terms {
		lits := make([]boolexpr.Literal, 1+rng.Intn(8))
		for li := range lits {
			lits[li] = boolexpr.Literal{Label: pool[rng.Intn(len(pool))], Negated: rng.Intn(3) == 0}
		}
		s.expr.Terms[ti].Literals = lits
	}
	s.plan.TermOrder = rng.Perm(len(s.expr.Terms))
	s.plan.LiteralOrder = make([][]int, len(s.expr.Terms))
	for ti, t := range s.expr.Terms {
		s.plan.LiteralOrder[ti] = rng.Perm(len(t.Literals))
	}
	s.deadline = t0.Add(time.Duration(rng.Intn(12)) * time.Second)
	labels := s.expr.Labels()
	s.sets = make([]evidence, rng.Intn(13))
	for i := range s.sets {
		s.sets[i] = evidence{
			label:   labels[rng.Intn(len(labels))],
			value:   rng.Intn(2) == 0,
			expires: t0.Add(time.Duration(rng.Intn(12)-2) * time.Second),
			source:  fmt.Sprintf("s%d", i),
		}
	}
	return s
}

// probeInstants are where a scenario is examined: two random instants and,
// for one piece of evidence, exactly its expiry and a nanosecond either
// side — where "fresh" (inclusive) and "future expiry" (strict) part ways.
func probeInstants(rng *rand.Rand, s scenario) []time.Time {
	at := []time.Time{
		t0.Add(time.Duration(rng.Int63n(int64(12 * time.Second)))),
		t0.Add(time.Duration(rng.Intn(12)) * time.Second),
	}
	if len(s.sets) > 0 {
		exp := s.sets[rng.Intn(len(s.sets))].expires
		at = append(at, exp.Add(-time.Nanosecond), exp, exp.Add(time.Nanosecond))
	}
	return at
}

// TestEngineMatchesMapReference is the differential property test: on
// seeded random queries, plans and evidence, every question the engine
// answers over label indices has the answer the map-based reference gives.
func TestEngineMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		s := genScenario(rng)
		// A descriptor's labels: some of the query's, some foreign, one
		// possibly twice, in no particular order.
		desc := append([]string{"zz", "a"}, s.expr.Labels()...)
		rng.Shuffle(len(desc), func(i, j int) { desc[i], desc[j] = desc[j], desc[i] })
		desc = append(desc[:rng.Intn(len(desc))], desc[rng.Intn(len(desc))])

		for k := 0; k <= len(s.sets); k++ {
			for _, now := range probeInstants(rng, s) {
				e, ref := s.after(k)
				where := fmt.Sprintf("trial %d: %s plan %v after %d of %+v at t0%+v", trial, s.expr, s.plan, k, s.sets, now.Sub(t0))
				a := ref.assignment(now)

				for _, l := range s.expr.Labels() {
					got, ok := e.Entry(l)
					if want, held := ref.entries[l]; ok != held || got != want {
						t.Fatalf("%s: Entry(%s) = %+v %v, reference %+v %v", where, l, got, ok, want, held)
					}
				}
				for ti, term := range s.expr.Terms {
					if got, want := e.TermValue(ti, now), term.Eval(a); got != want {
						t.Fatalf("%s: TermValue(%d) = %v, reference %v", where, ti, got, want)
					}
					for li, lit := range term.Literals {
						if got, want := e.LiteralUnknown(ti, li, now), a.Get(lit.Label) == boolexpr.Unknown; got != want {
							t.Fatalf("%s: LiteralUnknown(%d, %d) = %v, reference %v", where, ti, li, got, want)
						}
					}
				}
				if got, want := e.UnknownLabels(now), ref.unknownLabels(now); !slices.Equal(got, want) {
					t.Fatalf("%s: UnknownLabels = %v, reference %v", where, got, want)
				}
				if got, want := e.Wanted(desc, now), ref.wanted(desc, now); !slices.Equal(got, want) {
					t.Fatalf("%s: Wanted(%v) = %v, reference %v", where, desc, got, want)
				}
				if got, want := e.WantsAny(desc, now), len(ref.wanted(desc, now)) > 0; got != want {
					t.Fatalf("%s: WantsAny(%v) = %v, reference %v", where, desc, got, want)
				}
				got, ok := e.NextExpiry(now)
				if want, found := ref.nextExpiry(now); ok != found || !got.Equal(want) {
					t.Fatalf("%s: NextExpiry = %v %v, reference %v %v", where, got, ok, want, found)
				}

				// Step last: it is the one question that changes the engine.
				wantStatus := Pending
				switch s.expr.Eval(a) {
				case boolexpr.True:
					wantStatus = ResolvedTrue
				case boolexpr.False:
					wantStatus = ResolvedFalse
				default:
					if now.After(s.deadline) {
						wantStatus = Expired
					}
				}
				wantLit, wantNext := boolexpr.NextUnknown(s.expr, a, s.plan)
				if wantStatus != Pending {
					wantLit, wantNext = boolexpr.Literal{}, false
				}
				if got, ok := e.NextLabel(now); ok != wantNext || got != wantLit.Label {
					t.Fatalf("%s: NextLabel = %q %v, reference %q %v", where, got, ok, wantLit.Label, wantNext)
				}
				if got := e.Step(now); got != wantStatus {
					t.Fatalf("%s: Step = %v, reference %v", where, got, wantStatus)
				}
			}
		}
		interleave(t, rng, trial, s, desc)
	}
}

// interleave runs one engine through a random sequence of EachUnknown,
// Wanted, WantsAny and Set calls at instants drawn from three, so that
// most calls repeat the last call's instant, with or without a Set between
// them: the mark pass's memo must answer exactly what the reference does.
// Step is never called, so every Set applies, as it does to the reference.
func interleave(t *testing.T, rng *rand.Rand, trial int, s scenario, desc []string) {
	t.Helper()
	e, ref := s.after(0)
	labels := e.Labels()
	instants := []time.Time{
		t0.Add(time.Duration(rng.Intn(12)) * time.Second),
		t0.Add(time.Duration(rng.Intn(12)) * time.Second),
		t0.Add(time.Duration(rng.Int63n(int64(12 * time.Second)))),
	}
	now := instants[0]
	for op := 0; op < 40; op++ {
		if rng.Intn(3) == 0 {
			now = instants[rng.Intn(len(instants))]
		}
		where := fmt.Sprintf("trial %d: %s plan %v, op %d at t0%+v", trial, s.expr, s.plan, op, now.Sub(t0))
		switch rng.Intn(4) {
		case 0:
			var got []string
			e.EachUnknown(now, func(l int) { got = append(got, labels[l]) })
			if want := ref.unknownLabels(now); !slices.Equal(got, want) {
				t.Fatalf("%s: EachUnknown visits %v, reference %v", where, got, want)
			}
		case 1:
			if got, want := e.Wanted(desc, now), ref.wanted(desc, now); !slices.Equal(got, want) {
				t.Fatalf("%s: Wanted(%v) = %v, reference %v", where, desc, got, want)
			}
		case 2:
			if got, want := e.WantsAny(desc, now), len(ref.wanted(desc, now)) > 0; got != want {
				t.Fatalf("%s: WantsAny(%v) = %v, reference %v", where, desc, got, want)
			}
		case 3:
			ev := evidence{
				label:   labels[rng.Intn(len(labels))],
				value:   rng.Intn(2) == 0,
				expires: t0.Add(time.Duration(rng.Intn(12)-2) * time.Second),
			}
			if err := e.Set(ev.label, ev.value, ev.expires, "s", "ann"); err != nil {
				t.Fatal(err)
			}
			ref.set(ev.label, ev.value, ev.expires, "s", "ann")
		}
	}
}

// TestMarkGenerationWraps: UnknownLabels and Wanted dedupe by a per-engine
// generation mark; when the counter wraps, marks left by the previous
// round must not read as visited.
func TestMarkGenerationWraps(t *testing.T) {
	e := newEngine("(a & b) | (b & c)", time.Minute)
	want := e.UnknownLabels(t0)
	e.gen = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		if got := e.UnknownLabels(t0); !slices.Equal(got, want) {
			t.Fatalf("gen %d: UnknownLabels = %v, want %v", e.gen, got, want)
		}
		if got := e.Wanted([]string{"c", "x", "a"}, t0); !slices.Equal(got, []string{"c", "a"}) {
			t.Fatalf("gen %d: Wanted = %v, want [c a]", e.gen, got)
		}
	}
}

// TestMarkMemoFollowsSet: a mark pass that visits nothing, at the instant
// of the last pass and with no Set since, leaves the marks as they are (the
// generation does not move); a Set at that same instant, or another
// instant, makes the next Wanted or WantsAny mark afresh.
func TestMarkMemoFollowsSet(t *testing.T) {
	e := newEngine("(a & b) | (b & c)", time.Minute)
	desc := []string{"c", "b", "a"}
	if got := e.Wanted(desc, t0); !slices.Equal(got, desc) {
		t.Fatalf("Wanted = %v, want %v", got, desc)
	}
	gen := e.gen
	if !e.WantsAny([]string{"a"}, t0) || e.gen != gen {
		t.Fatalf("WantsAny at the same instant with no Set: %v at gen %d, want true at gen %d", e.WantsAny([]string{"a"}, t0), e.gen, gen)
	}
	if err := e.Set("a", true, t0.Add(time.Second), "s", "ann"); err != nil {
		t.Fatal(err)
	}
	if got := e.Wanted(desc, t0); !slices.Equal(got, []string{"c", "b"}) {
		t.Errorf("Wanted after a Set at the same instant = %v, want [c b]", got)
	}
	if e.WantsAny([]string{"a"}, t0) {
		t.Error("WantsAny([a]) after a Set at the same instant: a still marked")
	}
	if err := e.Set("b", false, t0.Add(time.Second), "s", "ann"); err != nil {
		t.Fatal(err)
	}
	if e.WantsAny(desc, t0) {
		t.Error("WantsAny after b ruled out both terms: a label still marked")
	}
	// Past a's and b's expiry, every label is wanted again.
	if got := e.Wanted(desc, t0.Add(2*time.Second)); !slices.Equal(got, desc) {
		t.Errorf("Wanted at a later instant = %v, want %v", got, desc)
	}
}

// thirtyLabelEngine is a pending engine the size of a Sec. VII query — six
// courses of action of five conditions each, half of them evidenced — and
// the instant to ask it questions at.
func thirtyLabelEngine() (*Engine, time.Time) {
	var expr boolexpr.DNF
	for ti := 0; ti < 6; ti++ {
		var term boolexpr.Term
		for li := 0; li < 5; li++ {
			term.Literals = append(term.Literals, boolexpr.Literal{Label: fmt.Sprintf("t%dl%d", ti, li)})
		}
		expr.Terms = append(expr.Terms, term)
	}
	e := NewEngine("q", expr, t0.Add(time.Hour), nil)
	for i, l := range e.Labels() {
		if i%2 == 0 {
			if err := e.Set(l, true, t0.Add(time.Duration(i+1)*time.Second), "s", "a"); err != nil {
				panic(err)
			}
		}
	}
	return e, t0.Add(time.Second)
}

// TestEngineReadsDoNotAllocate pins the point of the index space: asking a
// 30-label engine whether it is decided, what it wants next, what expires
// and how a term or a literal reads, which labels are unknown (visited),
// or whether any of an object's labels is still wanted, costs no
// allocation. (UnknownLabels and
// Wanted allocate their result and nothing else.)
func TestEngineReadsDoNotAllocate(t *testing.T) {
	e, now := thirtyLabelEngine()
	if e.Step(now) != Pending {
		t.Fatal("engine resolved; the reads below would be answered from the sticky status")
	}
	for name, read := range map[string]func(){
		"Step":           func() { _ = e.Step(now) },
		"NextLabel":      func() { _, _ = e.NextLabel(now) },
		"NextExpiry":     func() { _, _ = e.NextExpiry(now) },
		"TermValue":      func() { _ = e.TermValue(3, now) },
		"LiteralUnknown": func() { _ = e.LiteralUnknown(3, 2, now) },
		"WantsAny":       func() { _ = e.WantsAny([]string{"t9l9", "t0l1"}, now) },
		"EachUnknown":    func() { e.EachUnknown(now, func(int) {}) },
	} {
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Errorf("%s allocates %v times a call, want 0", name, allocs)
		}
	}
	for name, c := range map[string]struct {
		read func() []string
		want float64
	}{
		"Wanted":        {func() []string { return e.Wanted([]string{"t0l1", "t9l9"}, now) }, 1},
		"UnknownLabels": {func() []string { return e.UnknownLabels(now) }, 5}, // 15 labels: append grows 1, 2, 4, 8, 16
	} {
		if allocs := testing.AllocsPerRun(100, func() { _ = c.read() }); allocs > c.want {
			t.Errorf("%s allocates %v times a call, want its result only (%v)", name, allocs, c.want)
		}
	}
}

// TestNewEngineWithPlanDoesNotPlan: a caller that brings a plan does not
// pay for a second one. NewEngine is NewEngineWithPlan plus GreedyPlan, so
// it must allocate strictly more.
func TestNewEngineWithPlanDoesNotPlan(t *testing.T) {
	expr := boolexpr.ToDNF(boolexpr.MustParse("(a & b & c) | (d & e) | (f & g & h) | (i & !a) | (j & k & !d)"))
	if len(expr.Terms) != 5 {
		t.Fatalf("expression has %d terms, want 5", len(expr.Terms))
	}
	meta := boolexpr.MetaTable{"a": {Cost: 2, ProbTrue: 0.3}, "f": {Cost: 5, ProbTrue: 0.9}}
	plan := boolexpr.GreedyPlan(expr, meta)
	deadline := t0.Add(time.Minute)
	withPlan := testing.AllocsPerRun(100, func() { _ = NewEngineWithPlan("q", expr, deadline, meta, plan) })
	planning := testing.AllocsPerRun(100, func() { _ = NewEngine("q", expr, deadline, meta) })
	if withPlan >= planning {
		t.Errorf("NewEngineWithPlan allocates %v times, NewEngine %v: the ready plan was not used as given", withPlan, planning)
	}
}
