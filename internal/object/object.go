// Package object defines evidence (data) objects — the primary resources
// of decision-driven execution (Section II-B): sensor-generated items that
// carry the evidence needed to resolve decision labels, each with a size
// (retrieval cost), a creation instant, and a validity interval after which
// the evidence is stale.
package object

import (
	"fmt"
	"time"

	"athena/internal/names"
)

// ID uniquely identifies an object *version*: the name plus the sample
// sequence number. Two samples of the same sensor share a Name but differ
// in Version.
type ID struct {
	// Name is the object's hierarchical semantic name.
	Name names.Name
	// Version is the sample sequence number, starting at 1.
	Version uint64
}

// String renders the ID.
func (id ID) String() string {
	return fmt.Sprintf("%s#%d", id.Name, id.Version)
}

// Object is one sampled evidence item.
type Object struct {
	// ID identifies this sample.
	ID ID
	// Size is the object's size in bytes — its transmission cost.
	Size int64
	// Created is when the sensor sampled this object.
	Created time.Time
	// Validity is how long after Created the object remains fresh.
	Validity time.Duration
	// Labels are the decision labels this object can provide evidence
	// for (a camera image may cover several road segments at once,
	// Section III-B).
	Labels []string
	// Source identifies the node that originated the object.
	Source string
}

// Expiry is the instant the object's evidence becomes stale.
func (o *Object) Expiry() time.Time { return o.Created.Add(o.Validity) }

// FreshAt reports whether the object is still within its validity interval
// at instant t.
func (o *Object) FreshAt(t time.Time) bool { return !t.After(o.Expiry()) }

// RemainingValidity is how much freshness is left at t (zero if stale).
func (o *Object) RemainingValidity(t time.Time) time.Duration {
	d := o.Expiry().Sub(t)
	if d < 0 {
		return 0
	}
	return d
}

// CoversLabel reports whether the object can supply evidence for label.
func (o *Object) CoversLabel(label string) bool {
	for _, l := range o.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Descriptor is the advertised metadata of a *source's* object stream —
// what a sensor publishes about itself (Section II-B: sources advertise
// data type and which labels their objects help resolve). It also carries
// the planning metadata of Section III-A.
type Descriptor struct {
	// Name is the semantic name under which samples are published.
	Name names.Name
	// Size is the (typical) sample size in bytes.
	Size int64
	// Validity is the validity interval of samples, which equals the
	// sensor's sampling period in the model of Section IV-A.
	Validity time.Duration
	// Labels are the labels the stream's samples can evidence.
	Labels []string
	// Source is the originating node.
	Source string
	// ProbTrue is the prior probability that the evidence supports its
	// labels (used for short-circuit planning).
	ProbTrue float64
}
