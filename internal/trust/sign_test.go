package trust

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// goldenRecords are four fixed records whose signatures were recorded from
// the implementation that built one HMAC and five strings per call. The
// signed bytes are a protocol matter — a record signed by one build must
// verify on another — so a faster sign may not move them.
var goldenRecords = []struct {
	name string
	rec  Label
	sig  string
}{
	{
		"multi-evidence",
		Label{Name: "viableA", Value: true, Evidence: []string{"/grid/a/cam#1", "/grid/a/cam#2", "/grid/b/cam#7"}, Computed: t0, Validity: 30 * time.Second},
		"eb586d61f775c0436957387985179b28090ecf81a971c6090b1f6e576e4e7821",
	},
	{
		"unsorted-evidence",
		Label{Name: "viableA", Value: false, Evidence: []string{"/z#9", "/a#1", "/m#5", "/a#0"}, Computed: t0.Add(1500 * time.Millisecond), Validity: time.Minute},
		"e8ba49a49ced2a2b33512a1dd553034977481ee750505c2ca02b5dcf85b4760e",
	},
	{
		"empty-evidence",
		Label{Name: "ok", Value: true, Computed: t0, Validity: time.Hour},
		"0faa3cdd9ee4dc2dd0ecd144703ea25c9dfee97bf9ac56befcfde4e302d0771f",
	},
	{
		"negative-validity",
		Label{Name: "late|label", Value: false, Evidence: []string{"/grid/a/cam#1"}, Computed: time.Unix(-5, 17).UTC(), Validity: -3 * time.Second},
		"587024be29a5a50c4c3f502477f5559424c7c096c28059a18bc29be57dae172e",
	},
}

func TestSignatureGolden(t *testing.T) {
	auth := NewAuthority()
	signer := auth.Register("vision-1", []byte("secret"))
	for _, g := range goldenRecords {
		rec := g.rec
		before := slices.Clone(rec.Evidence)
		signer.Sign(&rec)
		if rec.Signature != g.sig {
			t.Errorf("%s: signature %s, golden %s", g.name, rec.Signature, g.sig)
		}
		if err := auth.Verify(&rec); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
		// A record's Evidence array is shared by every node the record
		// passes through: signing and verifying sort a copy, never it.
		if !slices.Equal(rec.Evidence, before) {
			t.Errorf("%s: evidence reordered in place: %v, was %v", g.name, rec.Evidence, before)
		}
	}
}

// TestConcurrentVerify runs under -race in CI: the nodes of an in-process
// socket fleet verify against one Authority at once, and a daemon
// registers late joiners' keys while they do. The records are signed under
// another Authority holding the same key, so the verifiers make the key's
// MAC state between them.
func TestConcurrentVerify(t *testing.T) {
	auth := NewAuthority()
	auth.Register("vision-1", []byte("secret"))
	signer := NewAuthority().Register("vision-1", []byte("secret"))
	recs := make([]Label, len(goldenRecords))
	for i, g := range goldenRecords {
		recs[i] = g.rec
		signer.Sign(&recs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec := recs[(g+i)%len(recs)] // a copy: the Evidence array stays shared
				if err := auth.Verify(&rec); err != nil {
					t.Errorf("goroutine %d, verify %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := auth.Register(fmt.Sprintf("joiner-%d", i%8), []byte{byte(i)})
			rec := goldenRecords[0].rec
			s.Sign(&rec)
			if err := auth.Verify(&rec); err != nil {
				t.Errorf("joiner %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}

func benchRecord() Label {
	return Label{Name: "viableA", Value: true, Evidence: []string{"/grid/r3c4/cam#12"}, Computed: t0, Validity: 30 * time.Second}
}

// BenchmarkSign and BenchmarkVerify time one signature over a record of
// the shape a node produces: one evidence object (deliverObject signs one
// label per arrival).
func BenchmarkSign(b *testing.B) {
	signer := NewAuthority().Register("vision-1", []byte("secret"))
	rec := benchRecord()
	signer.Sign(&rec) // the first signature under a key builds its keyed MAC
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signer.Sign(&rec)
	}
}

func BenchmarkVerify(b *testing.B) {
	auth := NewAuthority()
	rec := benchRecord()
	auth.Register("vision-1", []byte("secret")).Sign(&rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := auth.Verify(&rec); err != nil {
			b.Fatal(err)
		}
	}
}
