package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// Concurrent increments across counters, gauges and histograms must be
// exact under -race.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("events")
			g := r.Gauge("level")
			h := r.Histogram("latency", LinearBuckets(1, 1, 10))
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i + 1))
				h.Observe(float64(i%10) + 0.5)
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("events").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("level").Value(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	hs := r.Snapshot().Histograms["latency"]
	if hs.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", hs.Count, workers*per)
	}
	wantSum := float64(workers) * (float64(per/10) * (0.5 + 1.5 + 2.5 + 3.5 + 4.5 + 5.5 + 6.5 + 7.5 + 8.5 + 9.5))
	if math.Abs(hs.Sum-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", hs.Sum, wantSum)
	}
}

// Registry lookups return the same instrument for the same name.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same-name counters differ")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("same-name gauges differ")
	}
	h := r.Histogram("a", []float64{1, 2})
	if r.Histogram("a", []float64{9}) != h {
		t.Error("same-name histograms differ")
	}
}

// A nil registry and nil instruments must be inert and safe.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	c.Inc()
	c.Add(5)
	g.SetMax(3)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments reported values")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if s.Ratio("hit", "miss") != 1 {
		t.Error("empty ratio should default to 1")
	}
}

// Histogram bucket boundaries: an observation equal to a bound lands in
// that bound's bucket; past the last bound lands in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 4.1, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 2, 2, 2} // (<=1)=0.5,1.0  (<=2)=1.5,2.0  (<=4)=3.9,4.0  over=4.1,100
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
}

// Snapshots must be detached from later updates.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{1, 10})
	c.Inc()
	h.Observe(0.5)
	snap := r.Snapshot()

	c.Add(100)
	h.Observe(0.5)
	h.Observe(5)

	if got := snap.Counters["c"]; got != 1 {
		t.Errorf("snapshot counter mutated: %d", got)
	}
	hs := snap.Histograms["h"]
	if hs.Count != 1 || hs.Counts[0] != 1 || hs.Counts[1] != 0 {
		t.Errorf("snapshot histogram mutated: %+v", hs)
	}
	if got := r.Snapshot().Counters["c"]; got != 101 {
		t.Errorf("registry lost updates: %d", got)
	}
}

func TestHistogramMeanAndQuantile(t *testing.T) {
	h := NewHistogram(LinearBuckets(10, 10, 10)) // 10..100
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.snapshot()
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	if q := s.Quantile(0.5); q < 40 || q > 60 {
		t.Errorf("p50 = %v, want ~50", q)
	}
	if q := s.Quantile(0.99); q < 90 || q > 100 {
		t.Errorf("p99 = %v, want ~99", q)
	}
	if q := s.Quantile(0); q < 0 || q > 10 {
		t.Errorf("p0 = %v, want within first bucket", q)
	}
	var empty HistogramSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram stats should be zero")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("ExpBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
	lin := LinearBuckets(0, 5, 3)
	for i, want := range []float64{0, 5, 10} {
		if lin[i] != want {
			t.Errorf("LinearBuckets[%d] = %v, want %v", i, lin[i], want)
		}
	}
	lb := LatencyBuckets()
	if len(lb) == 0 || lb[0] != 0.001 {
		t.Errorf("LatencyBuckets head = %v", lb)
	}
}

// The snapshot must round-trip through JSON (the status endpoint's wire
// format).
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Add(3)
	r.Counter("cache.misses").Inc()
	r.Gauge("directory.version").SetMax(7)
	r.Histogram("lat", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("cache.hits") != 3 || back.Gauges["directory.version"] != 7 {
		t.Errorf("round-trip lost data: %+v", back)
	}
	if got := back.Ratio("cache.hits", "cache.misses"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
}

// A collector's counts add to a pushed counter of the same name and to
// each other's; a collector may use the registry it reports to; a snapshot
// does not follow the collected counts once taken; a nil registry ignores
// a collector.
func TestRegistryCollect(t *testing.T) {
	r := NewRegistry()
	r.Counter("shared").Add(5)
	var mu sync.Mutex // the collected counts' owner lock, as a node's
	owned := int64(2)
	r.Collect(func(emit func(string, int64)) {
		mu.Lock()
		defer mu.Unlock()
		emit("shared", owned)
		emit("only.collected", owned)
		emit("zero", 0)
	})
	r.Collect(func(emit func(string, int64)) {
		r.Counter("made.in.collector").Inc() // would deadlock under r.mu
		emit("shared", 10)
	})

	done := make(chan Snapshot)
	go func() { done <- r.Snapshot() }()
	var snap Snapshot
	select {
	case snap = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Snapshot deadlocked on a collector that calls r.Counter")
	}
	// The counter the collector created came after the pushed counters
	// were copied, so it first appears in the next snapshot.
	want := map[string]int64{"shared": 17, "only.collected": 2, "zero": 0}
	for name, v := range want {
		if got, ok := snap.Counters[name]; !ok || got != v {
			t.Errorf("counter %s = %d (present %v), want %d", name, got, ok, v)
		}
	}
	if len(snap.Counters) != len(want) {
		t.Errorf("snapshot counters = %v, want exactly %v", snap.Counters, want)
	}

	mu.Lock()
	owned = 100
	mu.Unlock()
	r.Counter("shared").Add(1000)
	if snap.Counters["shared"] != 17 || snap.Counters["only.collected"] != 2 {
		t.Errorf("snapshot followed later counts: %v", snap.Counters)
	}
	again := r.Snapshot()
	if got := again.Counters["shared"]; got != 1005+100+10 {
		t.Errorf("second snapshot shared = %d, want %d", got, 1005+100+10)
	}
	if got := again.Counters["made.in.collector"]; got != 1 {
		t.Errorf("second snapshot made.in.collector = %d, want 1", got)
	}

	var nilReg *Registry
	called := false
	nilReg.Collect(func(func(string, int64)) { called = true })
	if s := nilReg.Snapshot(); called || s.Counters != nil {
		t.Errorf("nil registry ran a collector (%v) or reported counters %v", called, s.Counters)
	}
}

// The no-op contract is enforced by benchmarks: enabled instruments must
// be allocation-free, and nil instruments must be branch-only.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.001)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("h", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.001)
	}
}

func TestInstrumentedPathsDoNotAllocate(t *testing.T) {
	c := NewRegistry().Counter("c")
	if n := testing.AllocsPerRun(100, c.Inc); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	h := NewRegistry().Histogram("h", LatencyBuckets())
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.25) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}
