// Package metrics is the fleet-observability layer: lock-free atomic
// counters and gauges, fixed-bucket histograms, and a named registry whose
// snapshots feed the athenad status endpoint and the simulator's per-run
// tables. It is pure stdlib and safe for concurrent use.
//
// A count reaches a snapshot one of two ways. Pushed: code holds a
// *Counter and adds to it as events happen — for counts written from
// goroutines that share no lock, such as a socket transport's. Pulled: a
// component that already keeps the count in a plain field registers a
// collector (Registry.Collect), and the registry reads the field when it
// takes a snapshot, so the event is counted once. Gauges and histograms
// are always pushed.
//
// The package is built around a disabled-is-free contract: every
// instrument is usable as a nil pointer, and a nil *Registry hands out nil
// instruments. A nil Inc/Add/Observe is a single branch — no allocation,
// no atomic, no lock — so instrumented hot paths cost nothing when
// observability is off. Enabled instruments are a single atomic RMW
// (counters, gauges) or a bucket search plus two atomic RMWs (histograms),
// still allocation-free.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are the caller's bug; they are applied
// as-is rather than paying for a check on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a level that only rises: a high-water mark. The zero value is
// ready to use; a nil *Gauge is a valid no-op instrument.
type Gauge struct {
	v atomic.Int64
}

// SetMax raises the level to v if it is above the current value.
// Concurrent SetMax calls commute, so a gauge fed by many writers (for
// example one directory replica per node mirroring its version) settles
// on the same value regardless of update order — a requirement for
// simulation outcomes that do not depend on which lane ran first.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at creation:
// bucket i counts observations v <= bounds[i] (the first bucket whose
// upper bound admits v), and one extra overflow bucket counts everything
// past the last bound. The running sum lets snapshots report the mean.
// A nil *Histogram is a valid no-op instrument.
type Histogram struct {
	bounds []float64      // ascending upper bounds, immutable after creation
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is copied and sorted defensively.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot copies the histogram's state. Buckets are loaded individually,
// so a snapshot taken during concurrent observation is internally
// approximate, but it is fully detached: later observations never mutate
// a snapshot already taken.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable, safe to share
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n evenly spaced upper bounds starting at start.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// LatencyBuckets is the default bound set for latency and staleness
// histograms expressed in seconds: 1ms to ~17.5 minutes, doubling.
func LatencyBuckets() []float64 { return ExpBuckets(0.001, 2, 21) }

// Registry is a named set of instruments. Lookups create on first use, so
// instrumented code never checks existence; resolve instruments once at
// construction and hold the pointers — the per-event path then touches no
// map and no lock. A nil *Registry hands out nil (no-op) instruments and
// an empty snapshot.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	collectors []func(emit func(name string, v int64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. An existing histogram keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Collect registers fn, which every Snapshot calls to read counts kept
// elsewhere: fn calls emit once per name with the count so far, and the
// value adds to any pushed counter and any other collector's value under
// that name. Snapshot calls fn outside the registry's lock, so fn may take
// its owner's lock and may use the registry. A nil registry ignores fn.
func (r *Registry) Collect(fn func(emit func(name string, v int64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Snapshot captures every instrument's current value and every
// collector's counts. The result is detached: later instrument updates do
// not alter it. A nil registry yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	s := Snapshot{}
	if len(r.counters) > 0 || len(r.collectors) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	collectors := r.collectors // append-only, so this prefix never changes
	r.mu.Unlock()
	emit := func(name string, v int64) { s.Counters[name] += v }
	for _, fn := range collectors {
		fn(emit)
	}
	return s
}

// Snapshot is a point-in-time copy of a registry, JSON-ready for the
// status endpoint and the simulator's per-run tables.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Ratio returns hit/(hit+miss) for two counters, or 1 when neither fired
// (an idle cache has served every request it got).
func (s Snapshot) Ratio(hit, miss string) float64 {
	h, m := float64(s.Counters[hit]), float64(s.Counters[miss])
	if h+m == 0 {
		return 1
	}
	return h / (h + m)
}

// HistogramSnapshot is a detached histogram state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean is Sum/Count (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation inside the bucket that crosses the target rank. Values in
// the overflow bucket report the last finite bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := (rank - seen) / float64(c)
			return lo + frac*(h.Bounds[i]-lo)
		}
		seen += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}
