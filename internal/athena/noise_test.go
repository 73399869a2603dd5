package athena

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
)

func TestNoisyReadingDeterministicAndRateful(t *testing.T) {
	// Same inputs always agree.
	a := noisyReading(true, "n1", "/cam/x#1", "l", 0.3)
	b := noisyReading(true, "n1", "/cam/x#1", "l", 0.3)
	if a != b {
		t.Fatal("noisyReading nondeterministic")
	}
	// Empirical flip rate over many distinct versions approaches the
	// configured rate.
	flips := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if !noisyReading(true, "n1", names.MustParse("/cam/x").String()+string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), "l", 0.3) {
			flips++
		}
	}
	rate := float64(flips) / n
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("flip rate = %v, want ~0.3", rate)
	}
	// Rate 0 never flips.
	if !noisyReading(true, "n1", "/cam/x#1", "l", 0) {
		t.Error("rate 0 flipped")
	}
}

// fmtNoisyReading is noisyReading as it was before its hash was folded in
// place: hash/fnv fed by fmt.Fprintf.
func fmtNoisyReading(truth bool, observer, objectID, label string, rate float64) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", observer, objectID, label)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	if u < rate {
		return !truth
	}
	return truth
}

// TestNoisyReadingMatchesFmtFNV runs noisyReading against the fnv+Fprintf
// hash it replaced, over observers, object ids and labels (empty ones and
// ones holding the separator included), both truths and three rates.
func TestNoisyReadingMatchesFmtFNV(t *testing.T) {
	strs := []string{"", "n1", "|", "a|b", "/cam/x#1", "/city/marketplace/south#18446744073709551615", "ü"}
	for _, observer := range strs {
		for _, id := range strs {
			for _, label := range strs {
				for _, rate := range []float64{0, 0.3, 0.7} {
					for _, truth := range []bool{false, true} {
						if got, want := noisyReading(truth, observer, id, label, rate), fmtNoisyReading(truth, observer, id, label, rate); got != want {
							t.Fatalf("noisyReading(%v, %q, %q, %q, %v) = %v, want %v", truth, observer, id, label, rate, got, want)
						}
					}
				}
			}
		}
	}
}

// noisyRig: one origin, three cameras covering the same label, all one
// hop away — corroboration must gather votes across the cameras.
func buildNoisyRig(t *testing.T, noise float64, nSources int) (*simclock.Scheduler, *netsim.Network, *Node) {
	t.Helper()
	sched := simclock.New(tBase)
	net := netsim.New(sched)
	net.AddNode("origin", nil)
	link := netsim.LinkConfig{Bandwidth: 125_000, Latency: time.Millisecond}

	world := staticWorld{"viable": true}
	var descs []object.Descriptor
	for i := 0; i < nSources; i++ {
		id := string(rune('A' + i))
		net.AddNode(id, nil)
		if err := net.AddLink("origin", id, link); err != nil {
			t.Fatal(err)
		}
		descs = append(descs, object.Descriptor{
			Name:     names.MustParse("/noisy/cam" + id),
			Size:     50_000,
			Validity: 20 * time.Second,
			Labels:   []string{"viable"},
			Source:   id,
			ProbTrue: 0.8,
		})
	}
	dir := NewDirectory(descs)
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"viable": {Cost: 50_000, ProbTrue: 0.8, Validity: 20 * time.Second}}
	mk := func(id string, d *object.Descriptor) *Node {
		node, err := New(Config{
			ID: id, Transport: transport.NewSim(net, id), Router: net,
			Timers: LaneTimers{Lane: sched.Lane}, Scheme: SchemeLVF, Directory: dir,
			Meta: meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20, DisablePrefetch: true,
			SensorNoise: noise,
		})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	origin := mk("origin", nil)
	for i := range descs {
		mk(descs[i].Source, &descs[i])
	}
	return sched, net, origin
}

func TestNoisyCorroborationResolves(t *testing.T) {
	sched, _, origin := buildNoisyRig(t, 0.2, 4)
	expr := boolexpr.ToDNF(boolexpr.MustParse("viable"))
	if _, err := origin.QueryInit(expr, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(tBase.Add(2*time.Minute), 0); err != nil {
		t.Fatal(err)
	}
	results := origin.Results()
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Status != core.ResolvedTrue {
		t.Fatalf("status = %v (ground truth is true)", results[0].Status)
	}
	// Confidence 0.95 at eps 0.2 needs at least 3 unanimous votes, so at
	// least 3 annotations must have happened.
	if got := origin.Stats().Annotations; got < 3 {
		t.Errorf("annotations = %d, want >= 3 (corroboration)", got)
	}
}

func TestNoisyCorroborationWaitsForFreshSamples(t *testing.T) {
	// Only one camera: after its sample votes, the next vote needs a new
	// sample (post-expiry). The query still resolves eventually within a
	// long deadline, using multiple sampling rounds.
	sched, _, origin := buildNoisyRig(t, 0.2, 1)
	expr := boolexpr.ToDNF(boolexpr.MustParse("viable"))
	if _, err := origin.QueryInit(expr, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(tBase.Add(4*time.Minute), 0); err != nil {
		t.Fatal(err)
	}
	results := origin.Results()
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	// With validity 20s and >= 3 votes needed, resolution takes > 40s.
	if results[0].Status == core.ResolvedTrue {
		if took := results[0].Finished.Sub(results[0].Issued); took < 40*time.Second {
			t.Errorf("resolved in %v; too fast for single-source corroboration", took)
		}
	}
	if origin.Stats().Annotations < 3 {
		t.Errorf("annotations = %d", origin.Stats().Annotations)
	}
}

func TestNoiseFreePathUnchanged(t *testing.T) {
	sched, net, origin := buildNoisyRig(t, 0, 2)
	expr := boolexpr.ToDNF(boolexpr.MustParse("viable"))
	if _, err := origin.QueryInit(expr, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(tBase.Add(time.Minute), 0); err != nil {
		t.Fatal(err)
	}
	results := origin.Results()
	if len(results) != 1 || results[0].Status != core.ResolvedTrue {
		t.Fatalf("results = %+v", results)
	}
	// One camera fetch suffices without noise.
	if origin.Stats().Annotations != 1 {
		t.Errorf("annotations = %d, want 1", origin.Stats().Annotations)
	}
	if bytes := net.Stats().BytesSent; bytes > 120_000 {
		t.Errorf("bytes = %d, noise-free run over-fetched", bytes)
	}
}
