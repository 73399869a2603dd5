package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/athena"
)

// runPool must execute every job exactly once while never exceeding the
// worker bound. Jobs hold at a gate until the pool is full, so the bound
// is reached by construction rather than by hoping jobs overlap; the test
// checks it while they are held, then releases them.
func TestRunPoolBoundsConcurrency(t *testing.T) {
	const jobs, workers = 50, 4
	var current, peak, ran int32
	var mu sync.Mutex
	full := make(chan struct{})    // closed when workers jobs run at once
	release := make(chan struct{}) // closed by the test once it has looked
	var fullOnce sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		runPool(jobs, workers, func(i int) {
			c := atomic.AddInt32(&current, 1)
			mu.Lock()
			if c > peak {
				peak = c
			}
			mu.Unlock()
			if c == workers {
				fullOnce.Do(func() { close(full) })
			}
			<-release
			atomic.AddInt32(&ran, 1)
			atomic.AddInt32(&current, -1)
		})
	}()
	<-full
	// Give a job the bound should keep out every chance to start before
	// the held ones are released (a pool one worker too wide fails here
	// in 20 runs of 20).
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if c := atomic.LoadInt32(&current); c != workers {
		t.Errorf("%d jobs running with the pool full, want %d", c, workers)
	}
	close(release)
	<-done
	if ran != jobs {
		t.Errorf("ran %d jobs, want %d", ran, jobs)
	}
	if peak != workers {
		t.Errorf("peak concurrency %d, want the worker bound %d", peak, workers)
	}
	// Degenerate shapes must not hang.
	runPool(0, workers, func(int) { t.Error("fn called for n=0") })
	var count int32
	runPool(3, 100, func(int) { atomic.AddInt32(&count, 1) })
	if count != 3 {
		t.Errorf("workers>n ran %d jobs, want 3", count)
	}
}

// Mean latency must be weighted by each repetition's resolved-query
// count: a repetition that resolved nothing reports zero latency, and
// averaging that zero in would fabricate a faster mean than any query
// ever achieved. foldOutcomes is the one fold behind Figures 2/3's
// points and every ablation row.
func TestAggregatePointsWeightsLatencyByResolved(t *testing.T) {
	p := foldOutcomes([]athena.Outcome{
		{QueriesIssued: 4, QueriesResolved: 4, ResolvedTrue: 4, MeanLatency: 10 * time.Second},
		{QueriesIssued: 4, QueriesResolved: 0}, // nothing resolved: no latency evidence
	})
	if p.MeanLatency != 10*time.Second {
		t.Errorf("MeanLatency = %v, want 10s (unresolved rep diluted the mean)", p.MeanLatency)
	}
	if p.Ratio != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", p.Ratio)
	}
	// All-unresolved: latency stays zero rather than dividing by zero.
	if p := foldOutcomes([]athena.Outcome{{QueriesIssued: 2}}); p.MeanLatency != 0 {
		t.Errorf("all-unresolved fold = %+v", p)
	}
}

// foldOutcomes also carries the ratio's spread and the repetition count
// that the figures' CSV reports.
func TestFoldOutcomesWeightsLatency(t *testing.T) {
	p := foldOutcomes([]athena.Outcome{
		{QueriesIssued: 2, QueriesResolved: 2, ResolvedTrue: 2, MeanLatency: 8 * time.Second},
		{QueriesIssued: 2, QueriesResolved: 0},
	})
	if p.MeanLatency != 8*time.Second {
		t.Errorf("MeanLatency = %v, want 8s", p.MeanLatency)
	}
	if p.Ratio != 0.5 || p.RatioMin != 0 || p.RatioMax != 1 || p.Reps != 2 {
		t.Errorf("ratio %v in [%v, %v] over %d reps, want 0.5 in [0, 1] over 2", p.Ratio, p.RatioMin, p.RatioMax, p.Reps)
	}
}
