// Package annotate implements annotators (Section II-B): entities that
// examine evidence objects and resolve label values. It provides the machine
// annotator, driven by a ground-truth world model, and corroboration of noisy
// sensor evidence to a target confidence (Section IV-B).
package annotate

import (
	"errors"
	"fmt"
	"math"
	"time"

	"athena/internal/object"
)

// ErrCannotAnnotate is returned when an annotator is asked to evaluate
// evidence it does not accept.
var ErrCannotAnnotate = errors.New("annotate: object does not evidence label")

// GroundTruth supplies the true value of a label at a given instant; the
// workload's world model implements it.
type GroundTruth interface {
	// LabelValue returns the true value of label at instant t.
	LabelValue(label string, t time.Time) bool
}

// Machine is a software annotator (e.g. a vision model): an instantaneous,
// perfect read of the ground truth as of the object's sample time. Sensor
// noise is modelled by the node, not here.
type Machine struct {
	truth GroundTruth
}

// NewMachine builds a machine annotator over a world model.
func NewMachine(truth GroundTruth) *Machine {
	return &Machine{truth: truth}
}

// Annotate resolves the label from the object. The value reflects the
// world at the object's sample time (evidence is a snapshot), not at
// annotation time. The object must list the label.
func (m *Machine) Annotate(label string, obj *object.Object) (bool, error) {
	if !obj.CoversLabel(label) {
		return false, fmt.Errorf("%w: %s from %s", ErrCannotAnnotate, label, obj.ID)
	}
	return m.truth.LabelValue(label, obj.Created), nil
}

// Confidence is the posterior probability that the majority value of n
// independent annotations with per-annotation error rate eps is correct,
// under a uniform prior. Used to decide how much corroborating evidence a
// noisy label needs (Section IV-B).
func Confidence(votesFor, votesAgainst int, eps float64) float64 {
	if eps <= 0 {
		if votesFor > 0 && votesAgainst == 0 || votesAgainst > 0 && votesFor == 0 {
			return 1
		}
	}
	eps = math.Min(math.Max(eps, 1e-9), 0.5)
	// Likelihood ratio for value=true vs value=false given the votes.
	logLR := float64(votesFor-votesAgainst) * math.Log((1-eps)/eps)
	pTrue := 1 / (1 + math.Exp(-logLR))
	return math.Max(pTrue, 1-pTrue)
}

// Corroborator accumulates noisy annotations for one label until a target
// confidence is reached.
type Corroborator struct {
	// Target is the required confidence in (0.5, 1].
	Target float64
	// Eps is the assumed per-annotation error rate.
	Eps float64

	votesFor     int
	votesAgainst int
}

// Add records one annotation vote.
func (c *Corroborator) Add(value bool) {
	if value {
		c.votesFor++
	} else {
		c.votesAgainst++
	}
}

// Votes returns the tallies so far.
func (c *Corroborator) Votes() (votesFor, votesAgainst int) {
	return c.votesFor, c.votesAgainst
}

// Decided reports whether confidence has reached the target, and if so
// the majority value.
func (c *Corroborator) Decided() (value bool, confident bool) {
	if c.votesFor == c.votesAgainst {
		return false, false
	}
	conf := Confidence(c.votesFor, c.votesAgainst, c.Eps)
	return c.votesFor > c.votesAgainst, conf >= c.Target
}
