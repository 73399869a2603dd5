package athena

import (
	"strings"
	"testing"
	"time"

	"athena/internal/cache"
	"athena/internal/trust"
)

// heldRig is the stop rig under lvfl with annotator a registered and a
// record of a's for la, with two evidence entries, in the node's label
// cache: admitted from a share passing through toward c, so it is not
// applied to any query. A non-empty expr is queried first, so the record
// arrives after the query's requests went out; id is that query's.
func heldRig(t *testing.T, expr string) (r *stopRig, id string, held trust.Label) {
	t.Helper()
	r = newStopRig(t, false, lvfl)
	signer := r.n.authority.Register("a", []byte("k-a"))
	if expr != "" {
		id = r.query(t, expr)
	}
	rec := trust.Label{Name: "la", Value: true, Evidence: []string{"/cam/a#1", "/cam/a#2"}, Computed: r.now, Validity: time.Minute}
	signer.Sign(&rec)
	r.locked(func() { r.n.handleLabelShare("a", &LabelShare{Records: []trust.Label{rec}, Dest: "c"}) })
	if r.n.labels.Held("la", "a") == nil {
		t.Fatal("the passing share's record was not cached")
	}
	return r, id, rec
}

// share hands the node a share of recs addressed to its query id and
// returns the keyed MACs the node computed for it.
func (r *stopRig) share(id string, recs ...trust.Label) int64 {
	before := r.n.macs()
	r.locked(func() { r.n.handleLabelShare("a", &LabelShare{Records: recs, Dest: "b", QueryID: id}) })
	return r.n.macs() - before
}

// A node authenticates a record once: a share of k records it already
// holds, byte for byte, computes no MAC, and is still applied.
func TestHeldShareComputesNoMAC(t *testing.T) {
	r := newStopRig(t, false, lvfl)
	signer := r.n.authority.Register("a", []byte("k-a"))
	var recs []trust.Label
	for _, l := range []string{"la", "lc", "lx"} {
		rec := trust.Label{Name: l, Value: true, Evidence: []string{"/cam/a#1"}, Computed: r.now, Validity: time.Minute}
		signer.Sign(&rec)
		recs = append(recs, rec)
	}
	id := r.query(t, "la & lc")
	if n := r.share("", recs...); n != 3 {
		t.Errorf("a share of 3 new records: %d MACs, want 3", n)
	}
	if _, live := r.n.queries[id]; !live {
		t.Fatal("a share without the query's id was applied")
	}
	if n := r.share(id, recs...); n != 0 {
		t.Errorf("a share of 3 held records: %d MACs, want 0", n)
	}
	if s := r.n.Stats(); s.ResolvedTrue != 1 {
		t.Errorf("the held records did not decide the query: %d resolved true", s.ResolvedTrue)
	}
}

// One object delivered to k queries that each want its label is annotated
// k times (Stats.Annotations keeps its meaning) and signed once.
func TestDeliverySignsOnce(t *testing.T) {
	r := newStopRig(t, false, lvfl)
	for i := 0; i < 3; i++ {
		r.query(t, "lc")
	}
	before, annotations := r.n.macs(), r.n.Stats().Annotations
	r.locked(func() { r.n.deliverObject(sampleOf("c", r.now), r.now) })
	s := r.n.Stats()
	if n := r.n.macs() - before; n != 1 {
		t.Errorf("one delivery to 3 queries: %d MACs, want 1", n)
	}
	if s.Annotations-annotations != 3 || s.ResolvedTrue != 3 {
		t.Errorf("%d annotations, %d resolved; want 3, 3", s.Annotations-annotations, s.ResolvedTrue)
	}
	// Every share the delivery sent carries the one signature, and it
	// verifies.
	sig := ""
	for _, f := range r.sent {
		ls, ok := f.payload.(*LabelShare)
		if !ok {
			continue
		}
		for i := range ls.Records {
			if err := r.n.authority.Verify(&ls.Records[i]); err != nil {
				t.Fatal(err)
			}
			if sig != "" && ls.Records[i].Signature != sig {
				t.Error("the delivery's records carry two signatures")
			}
			sig = ls.Records[i].Signature
		}
	}
	if sig == "" {
		t.Fatal("the delivery shared no record")
	}
}

// A request answered from the node's own label cache computes no MAC: the
// cache holds only records the node authenticated when it admitted them.
func TestLabelCacheAnswerComputesNoMAC(t *testing.T) {
	r, _, _ := heldRig(t, "")
	before := r.n.macs()
	r.query(t, "la")
	if n := r.n.macs() - before; n != 0 {
		t.Errorf("a label-cache answer: %d MACs, want 0", n)
	}
	if s := r.n.Stats(); s.LabelAnswers != 1 || s.ResolvedTrue != 1 || len(r.sent) != 1 {
		t.Errorf("%d label answers, %d resolved, %d frames; want the cache to answer (1, 1, the one forward)", s.LabelAnswers, s.ResolvedTrue, len(r.sent))
	}
}

// A share that differs from the held record in any one signed field, or in
// its signature, is verified and rejected: it is not cached and not
// applied to the query it is addressed to.
func TestShareDifferingFromHeldIsVerified(t *testing.T) {
	for _, m := range []struct {
		field  string
		mutate func(*trust.Label)
	}{
		{"name", func(l *trust.Label) { l.Name = "lc" }},
		{"value", func(l *trust.Label) { l.Value = false }},
		{"annotator", func(l *trust.Label) { l.Annotator = "c" }},
		{"computed", func(l *trust.Label) { l.Computed = l.Computed.Add(time.Nanosecond) }},
		{"validity", func(l *trust.Label) { l.Validity += time.Second }},
		{"evidence 0", func(l *trust.Label) { l.Evidence = []string{"/cam/a#9", l.Evidence[1]} }},
		{"evidence 1", func(l *trust.Label) { l.Evidence = []string{l.Evidence[0], "/cam/a#9"} }},
		{"signature", func(l *trust.Label) { l.Signature = strings.Repeat("0", len(l.Signature)) }},
	} {
		t.Run(m.field, func(t *testing.T) {
			r, id, held := heldRig(t, "la & lc")
			r.n.authority.Register("c", []byte("k-c"))
			forged := held
			m.mutate(&forged)
			if n := r.share(id, forged); n != 1 {
				t.Errorf("%d MACs, want the forged record verified once", n)
			}
			if got := r.n.labels.Held(forged.Name, forged.Annotator); got != nil && got.Signature == forged.Signature && got.SameFields(&forged) {
				t.Error("the forged record was cached")
			}
			q, live := r.n.queries[id]
			if !live {
				t.Fatal("the forged record decided the query")
			}
			if e, ok := q.engine.Entry(forged.Name); ok {
				t.Errorf("the forged record was applied: %s = %+v", forged.Name, e)
			}
		})
	}
}

// After the annotator's key is replaced, the record held under the old
// key answers nothing: its identical re-arrival is verified under the new
// key and rejected, and a request is not answered from the cache.
func TestReplacedKeyEmptiesLabelCache(t *testing.T) {
	t.Run("re-arrival", func(t *testing.T) {
		r, id, held := heldRig(t, "la & lc")
		r.n.authority.Register("a", []byte("rotated"))
		if n := r.share(id, held); n != 1 {
			t.Errorf("%d MACs, want the re-arrival verified under the new key", n)
		}
		if r.n.labels.Held("la", "a") != nil {
			t.Error("the old-key record is still cached")
		}
		if q, live := r.n.queries[id]; !live {
			t.Error("the old-key record decided the query")
		} else if _, ok := q.engine.Entry("la"); ok {
			t.Error("the old-key record was applied")
		}
	})
	t.Run("dispatch", func(t *testing.T) {
		r, _, _ := heldRig(t, "")
		r.n.authority.Register("a", []byte("rotated"))
		r.query(t, "la")
		if s := r.n.Stats(); s.LabelAnswers != 0 || s.RequestsSent != 1 {
			t.Errorf("%d label answers, %d requests sent; want the old-key record to answer nothing", s.LabelAnswers, s.RequestsSent)
		}
	})
}

// After the node's own key is replaced, what its old signer signs is not
// cached: the cache would serve it unverified, and it fails under the
// current key. A later request for the label goes out; it is not answered
// from the cache.
func TestReplacedOwnKeyIsNotCached(t *testing.T) {
	r := newStopRig(t, false, lvfl)
	r.n.authority.Register("b", []byte("rotated"))
	r.query(t, "lc")
	r.locked(func() { r.n.deliverObject(sampleOf("c", r.now), r.now) })
	if s := r.n.Stats(); s.ResolvedTrue != 1 {
		t.Fatalf("the delivery did not decide the query: %d resolved true", s.ResolvedTrue)
	}
	if rec := r.n.labels.Held("lc", "b"); rec != nil {
		t.Fatalf("a record signed under the replaced key was cached: %+v", rec)
	}
	r.n.store = cache.NewStore(1) // the object itself answers nothing
	sent := r.n.Stats().RequestsSent
	r.query(t, "lc")
	if s := r.n.Stats(); s.LabelAnswers != 0 || s.RequestsSent != sent+1 {
		t.Errorf("%d label answers, %d requests sent after the delivery; want the request to go out", s.LabelAnswers, s.RequestsSent-sent)
	}
}

// BenchmarkLabelShare times one share of three records arriving at a node
// that already holds them: held is a share toward a data source ending at
// it, the path caching of PAPER Sec. VI-D. Each record is admitted without
// a MAC and, cached by reference, without a copy. ci.sh gates its allocs/op at 0; a node that verifies and
// copies every arriving record makes 3.
func BenchmarkLabelShare(b *testing.B) {
	b.Run("held", func(b *testing.B) {
		r := &stopRig{now: tBase}
		auth := trust.NewAuthority()
		n, err := New(Config{
			ID: "b", Transport: r, Router: &StaticRouter{Self: "b"}, Timers: noTimers{},
			Scheme: SchemeLVFL, Directory: NewDirectory(nil), World: staticWorld{},
			Authority: auth, Signer: auth.Register("b", []byte("k-b")), Policy: trust.TrustAll(),
			CacheBytes: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		signer := auth.Register("a", []byte("k-a"))
		recs := make([]trust.Label, 3)
		for i, l := range []string{"la", "lb", "lc"} {
			recs[i] = trust.Label{Name: l, Value: true, Evidence: []string{"/cam/a#1"}, Computed: tBase, Validity: time.Minute}
			signer.Sign(&recs[i])
		}
		s := &LabelShare{Records: recs, Dest: "b"}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.handleLabelShare("a", s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.handleLabelShare("a", s)
		}
	})
}
