package main

import (
	"fmt"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// held reports how many observations the estimator keeps for a label.
func held(e *Estimator, label string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m := e.models[label]; m != nil {
		return len(m.observations)
	}
	return 0
}

func TestProbTrueSmoothing(t *testing.T) {
	e := NewEstimator()
	if got := e.ProbTrue("x"); got != 0.5 {
		t.Errorf("unknown ProbTrue = %v", got)
	}
	for i := 0; i < 8; i++ {
		e.Observe(Observation{Label: "x", Value: true, At: t0.Add(time.Duration(i) * time.Second)})
	}
	e.Observe(Observation{Label: "x", Value: false, At: t0.Add(9 * time.Second)})
	want := float64(8+1) / float64(9+2)
	if got := e.ProbTrue("x"); math.Abs(got-want) > 1e-12 {
		t.Errorf("ProbTrue = %v, want %v", got, want)
	}
}

func TestHistoryBound(t *testing.T) {
	e := NewEstimator()
	// The first 100 observations are true, the rest alternate: once they
	// are trimmed, the estimate reflects only the alternating tail.
	for i := 0; i < maxHistory+100; i++ {
		e.Observe(Observation{Label: "x", Value: i < 100 || i%2 == 0, At: t0.Add(time.Duration(i) * time.Second)})
	}
	if got := held(e, "x"); got != maxHistory {
		t.Errorf("history = %d, want %d", got, maxHistory)
	}
	// trueCount stays consistent with retained history.
	want := float64(maxHistory/2+1) / float64(maxHistory+2)
	if got := e.ProbTrue("x"); math.Abs(got-want) > 1e-12 {
		t.Errorf("ProbTrue after trim = %v, want %v", got, want)
	}
}

func TestOutOfOrderObservations(t *testing.T) {
	e := NewEstimator()
	// A full history of true values, then one late-arriving false sample
	// from before all of them: it sorts first, so it is the one trimmed.
	for i := 1; i <= maxHistory; i++ {
		e.Observe(Observation{Label: "x", Value: true, At: t0.Add(time.Duration(i) * time.Second)})
	}
	e.Observe(Observation{Label: "x", Value: false, At: t0})
	want := float64(maxHistory+1) / float64(maxHistory+2)
	if got := e.ProbTrue("x"); got != want {
		t.Errorf("ProbTrue = %v, want %v (the stale sample kept)", got, want)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	obs := e.models["x"].observations
	for i := 1; i < len(obs); i++ {
		if obs[i].At.Before(obs[i-1].At) {
			t.Fatalf("observations out of order at %d: %v before %v", i, obs[i].At, obs[i-1].At)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	e := NewEstimator()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				e.Observe(Observation{
					Label: fmt.Sprintf("l%d", g),
					Value: i%2 == 0,
					At:    t0.Add(time.Duration(i) * time.Second),
				})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	for g := 0; g < 4; g++ {
		if got := held(e, fmt.Sprintf("l%d", g)); got != 200 {
			t.Errorf("l%d observations = %d", g, got)
		}
	}
}
