package athena

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/names"
	"athena/internal/object"
)

// rigWithHistory returns a rig whose nodeA has issued and resolved
// finished queries (against its own sensor, so nothing crosses the
// network) and holds one pending query on nodeC's labels, issued first.
func rigWithHistory(t testing.TB, finished int) *rig {
	t.Helper()
	r := buildRig(t, SchemeLVF, staticWorld{"la1": true, "la2": true}, nil)
	a := r.nodes["nodeA"]
	if _, err := a.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2")), time.Hour); err != nil {
		t.Fatal(err)
	}
	local := boolexpr.ToDNF(boolexpr.MustParse("la1 & la2"))
	for i := 0; i < finished; i++ {
		if _, err := a.QueryInit(local, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, 2*time.Second)
	if got := a.Stats().ResolvedTrue; got != finished {
		t.Fatalf("resolved %d of %d local queries", got, finished)
	}
	return r
}

// unrelatedObject is an arrival no query of the rig references, so
// delivering it walks the node's queries and changes nothing.
func unrelatedObject(now time.Time) *object.Object {
	return &object.Object{
		ID:       object.ID{Name: names.MustParse("/cam/other"), Version: 1},
		Size:     1000,
		Created:  now,
		Validity: time.Minute,
		Labels:   []string{"other"},
		Source:   "nodeC",
	}
}

// TestDeliverObjectIgnoresFinishedQueries holds an object delivery to a
// cost set by the node's live queries: 2000 resolved ones leave the live
// index and add no allocation to a delivery.
func TestDeliverObjectIgnoresFinishedQueries(t *testing.T) {
	allocs := func(finished int) float64 {
		a := rigWithHistory(t, finished).nodes["nodeA"]
		a.mu.Lock()
		defer a.mu.Unlock()
		if len(a.queries) != 1 || len(a.live) != 1 {
			t.Fatalf("after %d finished queries: %d known, %d live, want 1 and 1", finished, len(a.queries), len(a.live))
		}
		now := a.now()
		obj := unrelatedObject(now)
		return testing.AllocsPerRun(100, func() { a.deliverObject(obj, now) })
	}
	if fresh, aged := allocs(0), allocs(2000); aged != fresh {
		t.Errorf("a delivery allocates %v times after 2000 resolved queries, %v after none", aged, fresh)
	}
}

// TestDeliverObjectLabelChecksDoNotAllocate: whether a live query can use
// an arrival is a search of the label set its engine already holds. With
// 50 live queries and an object none of them references, a delivery asks
// 50 times and allocates nothing.
func TestDeliverObjectLabelChecksDoNotAllocate(t *testing.T) {
	r := buildRig(t, SchemeLVF, staticWorld{"lc1": true, "lc2": true}, nil)
	a := r.nodes["nodeA"]
	expr := boolexpr.ToDNF(boolexpr.MustParse("(lc1 & lc2) | (la1 & !lc2)"))
	for i := 0; i < 50; i++ {
		if _, err := a.QueryInit(expr, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, time.Second) // the 200 KB object they wait for needs ~3.2 s
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.live) != 50 {
		t.Fatalf("%d live queries, want 50", len(a.live))
	}
	now := a.now()
	obj := unrelatedObject(now)
	if allocs := testing.AllocsPerRun(100, func() { a.deliverObject(obj, now) }); allocs != 0 {
		t.Errorf("delivering an object no live query references allocates %v times", allocs)
	}
}

// TestDeliverObjectSignsEvidencedLabels pins the label record the query
// origin makes for an arrival: one per label the object evidences and the
// query references, naming the object as its evidence, valid for what is
// left of the object's validity, and signed so the fleet authority
// verifies it. A referenced label the object does not evidence gets none.
func TestDeliverObjectSignsEvidencedLabels(t *testing.T) {
	r := buildRig(t, SchemeLVF, staticWorld{"lc1": true, "lc2": true}, nil)
	a := r.nodes["nodeA"]
	if _, err := a.QueryInit(boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2")), time.Hour); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Second) // the 200 KB object the query waits for needs ~3.2 s
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	obj := &object.Object{
		ID:       object.ID{Name: names.MustParse("/cam/c1"), Version: 1},
		Size:     1000,
		Created:  now.Add(-5 * time.Second),
		Validity: time.Minute,
		Labels:   []string{"lc1"},
		Source:   "nodeC",
	}
	a.deliverObject(obj, now)
	recs := a.labels.Records(now)
	if len(recs) != 1 || recs[0].Name != "lc1" {
		t.Fatalf("records after the delivery = %+v, want one for lc1", recs)
	}
	rec := recs[0]
	if !rec.Value || len(rec.Evidence) != 1 || rec.Evidence[0] != obj.ID.String() {
		t.Errorf("record value %v, evidence %v; want true from [%s]", rec.Value, rec.Evidence, obj.ID)
	}
	if !rec.Computed.Equal(now) || rec.Validity != obj.RemainingValidity(now) || rec.Validity != 55*time.Second {
		t.Errorf("record computed %v valid %v, want %v and the object's remaining %v", rec.Computed, rec.Validity, now, obj.RemainingValidity(now))
	}
	if err := a.authority.Verify(&rec); err != nil {
		t.Errorf("record does not verify: %v", err)
	}
}

// TestQueryWantsAnyReadsWholeExpression: an arrival is of use to a query
// that mentions one of its labels anywhere — negated, or in a term the
// plan has not reached.
func TestQueryWantsAnyReadsWholeExpression(t *testing.T) {
	expr := boolexpr.ToDNF(boolexpr.MustParse("(la1 & la2) | (lc1 & !lc2)"))
	q := &localQuery{engine: core.NewEngine("q", expr, time.Time{}, nil)}
	for _, c := range []struct {
		labels []string
		want   bool
	}{
		{[]string{"lc2"}, true},          // only ever negated, last term
		{[]string{"other", "lc1"}, true}, // not the object's first label
		{[]string{"other", "la"}, false},
		{nil, false},
	} {
		if got := queryWantsAny(q, &object.Object{Labels: c.labels}); got != c.want {
			t.Errorf("queryWantsAny(%v) = %v, want %v", c.labels, got, c.want)
		}
	}
}

// BenchmarkQueryReferences times the question deliverObject asks of every
// live query on every arrival — does the query reference any label of
// this object — for a six-label query and a two-label object whose second
// label matches. It must not allocate.
func BenchmarkQueryReferences(b *testing.B) {
	expr := boolexpr.ToDNF(boolexpr.MustParse("(r1 & r2 & r3) | (r4 & r5 & r6)"))
	q := &localQuery{engine: core.NewEngine("q", expr, time.Time{}, nil)}
	obj := &object.Object{Labels: []string{"r0", "r6"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !queryWantsAny(q, obj) {
			b.Fatal("query does not want an object carrying r6")
		}
	}
}

// TestActiveQueriesVisitedInIdOrder pins the order an arrival visits live
// queries in — plain string order of their ids, "nodeA/q10" before
// "nodeA/q2" — which fixes the order of the sends and timers the visits
// schedule and so every seeded outcome the goldens record.
func TestActiveQueriesVisitedInIdOrder(t *testing.T) {
	r := buildRig(t, SchemeLVF, staticWorld{"lc1": true, "lc2": true}, nil)
	a := r.nodes["nodeA"]
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	var want []string
	for i := 0; i < 12; i++ {
		id, err := a.QueryInit(expr, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	sort.Strings(want)
	if want[1] != "nodeA/q10" || want[4] != "nodeA/q2" {
		t.Fatalf("fixture ids sort as %v", want)
	}

	// All twelve wait on the same object; its one arrival resolves them
	// in visiting order, which is the order their results are recorded in.
	r.run(t, 20*time.Second)
	var got []string
	for _, res := range a.Results() {
		if res.Status != core.ResolvedTrue {
			t.Fatalf("%s: %v", res.QueryID, res.Status)
		}
		got = append(got, res.QueryID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("queries resolved in order\n %v\nwant\n %v", got, want)
	}
}

// TestPendingQueriesCountsOnlyUndecided mixes a resolved query, an expired
// one whose watchdog has not fired yet, and two pending ones.
func TestPendingQueriesCountsOnlyUndecided(t *testing.T) {
	r := buildRig(t, SchemeLVF, staticWorld{"la1": true, "la2": true}, nil)
	a := r.nodes["nodeA"]
	remote := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	for _, q := range []struct {
		expr     boolexpr.DNF
		deadline time.Duration
	}{
		{boolexpr.ToDNF(boolexpr.MustParse("la1 & la2")), 30 * time.Second}, // own sensor: resolves at once
		{remote, time.Second}, // the 200 KB object needs ~3.2 s: expires
		{remote, 30 * time.Second},
		{remote, 30 * time.Second},
	} {
		if _, err := a.QueryInit(q.expr, q.deadline); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.PendingQueries(); got != 4 {
		t.Errorf("at issue: %d pending, want 4 (nothing is dispatched before the first drain)", got)
	}
	r.run(t, time.Millisecond)
	if got := a.PendingQueries(); got != 3 {
		t.Errorf("after the first drain: %d pending, want 3", got)
	}
	// Past the short deadline, before its watchdog (deadline + 1 ms) runs.
	r.run(t, time.Second+500*time.Microsecond)
	if got := a.PendingQueries(); got != 2 {
		t.Errorf("past the short deadline: %d pending, want 2", got)
	}
	r.run(t, time.Minute)
	if got := a.PendingQueries(); got != 0 {
		t.Errorf("at the end: %d pending, want 0", got)
	}
	s := a.Stats()
	if s.ResolvedTrue != 1 || s.ResolvedFalse != 2 || s.Expired != 1 {
		t.Errorf("outcomes = %d true, %d false, %d expired; want 1, 2, 1", s.ResolvedTrue, s.ResolvedFalse, s.Expired)
	}
}

// BenchmarkDeliverObjectHistory times one object arrival at a node with
// one live query and n finished ones. Both the time and the allocations
// must not depend on n; ci.sh gates allocs/op at n2000.
func BenchmarkDeliverObjectHistory(b *testing.B) {
	for _, finished := range []int{0, 2000} {
		b.Run(fmt.Sprintf("n%d", finished), func(b *testing.B) {
			a := rigWithHistory(b, finished).nodes["nodeA"]
			a.mu.Lock()
			defer a.mu.Unlock()
			now := a.now()
			obj := unrelatedObject(now)
			b.ReportAllocs()
			// Building the rig's history starts a GC cycle; finish it here.
			// A cycle whose mark phase ends inside the timed loop allocates
			// the runtime's own sudog (gcMarkDone's semacquire), which the
			// count would charge to the delivery.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.deliverObject(obj, now)
			}
		})
	}
}
