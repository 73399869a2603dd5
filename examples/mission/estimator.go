package main

// The model-learning loop sketched in Section VIII: the system observes
// label values over time and derives its own models of the physical
// phenomena. This example learns one of them, how often a predicate
// holds, and prints it; nothing feeds it back into a node's planner.

import (
	"sort"
	"sync"
	"time"
)

// maxHistory bounds per-label observation history.
const maxHistory = 512

// Observation is one annotated label value at a point in time.
type Observation struct {
	// Label is the observed predicate.
	Label string
	// Value is the observed boolean state.
	Value bool
	// At is when the underlying evidence was sampled.
	At time.Time
}

// labelModel accumulates per-label statistics.
type labelModel struct {
	observations []Observation // kept sorted by At
	trueCount    int
}

// Estimator learns per-label success probabilities from observations. It
// is safe for concurrent use.
type Estimator struct {
	mu     sync.Mutex
	models map[string]*labelModel
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{models: make(map[string]*labelModel)}
}

// Observe records a label observation. Past maxHistory observations of a
// label, the earliest-sampled one is dropped.
func (e *Estimator) Observe(obs Observation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.models[obs.Label]
	if m == nil {
		m = &labelModel{}
		e.models[obs.Label] = m
	}
	// Insert keeping At order (observations usually arrive in order, so
	// this is an append in the common case).
	idx := sort.Search(len(m.observations), func(i int) bool {
		return m.observations[i].At.After(obs.At)
	})
	m.observations = append(m.observations, Observation{})
	copy(m.observations[idx+1:], m.observations[idx:])
	m.observations[idx] = obs
	if obs.Value {
		m.trueCount++
	}
	if len(m.observations) > maxHistory {
		if m.observations[0].Value {
			m.trueCount--
		}
		m.observations = m.observations[1:]
	}
}

// ProbTrue is the Laplace-smoothed probability the label is true.
func (e *Estimator) ProbTrue(label string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.models[label]
	if m == nil {
		return 0.5
	}
	return float64(m.trueCount+1) / float64(len(m.observations)+2)
}
