package athena

import (
	"testing"
	"time"

	"athena/internal/trust"
)

// lvfl runs the rig's node under lvfl, the scheme that shares labels.
func lvfl(c *Config) { c.Scheme = SchemeLVFL }

// A label answer retires only the object request it answered: with a and
// c's objects both in flight, a share of la settles a's request and leaves
// c's outstanding, so c's answer decides the query and nothing is asked
// twice.
func TestLabelShareRetiresOnlyWhatItAnswered(t *testing.T) {
	r := newStopRig(t, false, lvfl)
	id := r.query(t, "la & lc")
	if n := r.n.queries[id].inFlight; n != 2 {
		t.Fatalf("%d objects in flight, want 2", n)
	}
	rec := &trust.Label{Name: "la", Value: true, Computed: r.now, Validity: time.Minute}
	r.n.signer.Sign(rec)
	r.advance(time.Second)
	r.locked(func() {
		r.n.handleLabelShare("a", &LabelShare{Records: []trust.Label{*rec}, Dest: "b", QueryID: id})
	})
	r.advance(0)
	q := r.n.queries[id]
	if q.reqs["/cam/a"].inFlight {
		t.Error("a's request is still outstanding after the share answered it")
	}
	if !q.reqs["/cam/c"].inFlight {
		t.Error("c's request was settled by a share that did not answer it")
	}
	r.locked(func() { r.n.deliverObject(sampleOf("c", r.now), r.now) })
	s := r.n.Stats()
	if s.ResolvedTrue != 1 || s.RequestsSent != 2 || s.Refetches != 0 {
		t.Errorf("resolved %d, %d requests sent, %d refetches; want 1, 2, 0", s.ResolvedTrue, s.RequestsSent, s.Refetches)
	}
}

// The origin answers a request from its label cache with a record from an
// annotator it trusts (PAPER Sec. VI-D): an equally fresh record from one it
// does not trust, put in before or after, does not send it to the network.
func TestLabelCacheAnswerUsesTrustedRecord(t *testing.T) {
	for round := 0; round < 16; round++ {
		r := newStopRig(t, false, lvfl, func(c *Config) { c.Policy = trust.TrustOnly("t") })
		var recs []*trust.Label
		for _, ann := range []string{"t", "u"} {
			rec := &trust.Label{Name: "la", Value: true, Computed: r.now, Validity: time.Minute}
			r.n.authority.Register(ann, []byte("k-"+ann)).Sign(rec)
			recs = append(recs, rec)
		}
		for i := range recs {
			r.n.labels.Put(recs[(round+i)%len(recs)])
		}
		r.query(t, "la")
		if s := r.n.Stats(); s.LabelAnswers != 1 || s.RequestsSent != 1 || s.ResolvedTrue != 1 {
			t.Fatalf("round %d: %d label answers, %d requests, %d resolved; want the trusted record to answer the one request",
				round, s.LabelAnswers, s.RequestsSent, s.ResolvedTrue)
		}
		if len(r.sent) != 0 {
			t.Fatalf("round %d: %d frames sent; the trusted record should have answered locally", round, len(r.sent))
		}
	}
}
