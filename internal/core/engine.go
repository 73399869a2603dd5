// Package core is the paper's primary contribution as a library: the
// decision-driven execution engine. It tracks the state of one decision
// query — a DNF expression over labels, each resolved by time-limited
// evidence — and answers the questions the resource manager needs:
// is the decision made, which label should be resolved next (short-circuit
// aware), when does currently held evidence expire, and was the decision
// reached in time.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"athena/internal/boolexpr"
)

// Entry is one resolved label held by the engine, valid until Expires.
type Entry struct {
	// Value is the resolved boolean value.
	Value bool
	// Expires is when the evidence behind the value goes stale.
	Expires time.Time
	// Source identifies the data source of the evidence.
	Source string
	// Annotator identifies who computed the value.
	Annotator string
}

// Status describes a query's progress.
type Status int

const (
	// Pending means more evidence is needed.
	Pending Status = iota + 1
	// ResolvedTrue means a viable course of action was found.
	ResolvedTrue
	// ResolvedFalse means every course of action was ruled out.
	ResolvedFalse
	// Expired means the deadline passed before resolution.
	Expired
)

// Resolved reports whether a decision, true or false, was reached.
func (s Status) Resolved() bool { return s == ResolvedTrue || s == ResolvedFalse }

// String renders the status.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case ResolvedTrue:
		return "resolved-true"
	case ResolvedFalse:
		return "resolved-false"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrUnknownLabel is returned when setting a label the query does not
// reference.
var ErrUnknownLabel = errors.New("core: label not referenced by query")

// Engine drives one decision query.
type Engine struct {
	id       string
	expr     boolexpr.DNF
	deadline time.Time
	meta     boolexpr.MetaTable
	plan     boolexpr.QueryPlan

	entries map[string]Entry
	// labels is the set of labels the expression references, sorted and
	// fixed at construction: Labels hands it out, References and Set
	// search it.
	labels []string

	resolved   Status
	resolvedAt time.Time
}

// NewEngine creates an engine for a decision query. The metadata informs
// the short-circuit plan (Section III-A); missing entries get neutral
// defaults.
func NewEngine(id string, expr boolexpr.DNF, deadline time.Time, meta boolexpr.MetaTable) *Engine {
	return &Engine{
		id:       id,
		expr:     expr,
		deadline: deadline,
		meta:     meta,
		plan:     boolexpr.GreedyPlan(expr, meta),
		entries:  make(map[string]Entry),
		labels:   expr.Labels(),
		resolved: Pending,
	}
}

// NewEngineWithPlan is NewEngine with an explicit evaluation plan, for
// callers that order retrieval by other criteria (e.g. the LVF scheduler
// orders literals by validity instead of short-circuit probability).
func NewEngineWithPlan(id string, expr boolexpr.DNF, deadline time.Time, meta boolexpr.MetaTable, plan boolexpr.QueryPlan) *Engine {
	e := NewEngine(id, expr, deadline, meta)
	e.plan = plan
	return e
}

// ID returns the query identifier.
func (e *Engine) ID() string { return e.id }

// Expr returns the decision expression.
func (e *Engine) Expr() boolexpr.DNF { return e.expr }

// Deadline returns the decision deadline.
func (e *Engine) Deadline() time.Time { return e.deadline }

// Labels returns the labels the query references, sorted. The slice is the
// engine's own, computed once: callers must not modify it.
func (e *Engine) Labels() []string { return e.labels }

// References reports whether the query's expression mentions label, in any
// term and under either polarity.
func (e *Engine) References(label string) bool {
	_, found := slices.BinarySearch(e.labels, label)
	return found
}

// Plan returns the short-circuit evaluation plan in use.
func (e *Engine) Plan() boolexpr.QueryPlan { return e.plan }

// Set records a resolved label. Stale entries (expires before now) are
// accepted but will read as Unknown. Setting after resolution is a no-op.
func (e *Engine) Set(label string, value bool, expires time.Time, source, annotator string) error {
	if !e.References(label) {
		return fmt.Errorf("%w: %q", ErrUnknownLabel, label)
	}
	if e.resolved != Pending {
		return nil
	}
	// Keep the longer-lived of the old and new evidence for this value;
	// a fresh observation always replaces an older one regardless.
	if prev, ok := e.entries[label]; ok && prev.Value == value && prev.Expires.After(expires) {
		return nil
	}
	e.entries[label] = Entry{Value: value, Expires: expires, Source: source, Annotator: annotator}
	return nil
}

// Entry returns the held entry for a label.
func (e *Engine) Entry(label string) (Entry, bool) {
	en, ok := e.entries[label]
	return en, ok
}

// Assignment is the fresh three-valued view of the query's labels at
// instant now: entries past expiry read as Unknown. Freshness at the
// exact expiry instant counts as fresh, matching object.Object.FreshAt so
// cache and engine agree and cannot livelock each other.
func (e *Engine) Assignment(now time.Time) boolexpr.Assignment {
	a := make(boolexpr.Assignment, len(e.entries))
	for l, en := range e.entries {
		if !now.After(en.Expires) {
			a[l] = boolexpr.FromBool(en.Value)
		}
	}
	return a
}

// Step advances the engine's status at instant now and returns it. Once a
// terminal status is reached it is sticky: a decision made in time stays
// made (condition (ii) of Section I demands freshness at decision time,
// which Step enforces by evaluating only unexpired entries).
func (e *Engine) Step(now time.Time) Status {
	if e.resolved != Pending {
		return e.resolved
	}
	switch e.expr.Eval(e.Assignment(now)) {
	case boolexpr.True:
		e.resolved = ResolvedTrue
		e.resolvedAt = now
	case boolexpr.False:
		e.resolved = ResolvedFalse
		e.resolvedAt = now
	default:
		if now.After(e.deadline) {
			e.resolved = Expired
			e.resolvedAt = now
		}
	}
	return e.resolved
}

// ResolvedAt returns when a terminal status was reached (zero if pending).
func (e *Engine) ResolvedAt() time.Time { return e.resolvedAt }

// NextLabel returns the label the short-circuit plan wants resolved next
// at instant now, or false if the query is terminal or nothing can advance
// it. Expired entries read as Unknown and so become fetchable again
// (refetch on expiry).
func (e *Engine) NextLabel(now time.Time) (string, bool) {
	if e.Step(now) != Pending {
		return "", false
	}
	lit, ok := boolexpr.NextUnknown(e.expr, e.Assignment(now), e.plan)
	if !ok {
		return "", false
	}
	return lit.Label, true
}

// UnknownLabels lists every label that currently reads Unknown in the
// first undecided term and all later terms — the candidate set batch
// schemes fetch eagerly. Order follows the plan.
func (e *Engine) UnknownLabels(now time.Time) []string {
	a := e.Assignment(now)
	var out []string
	seen := make(map[string]bool)
	for _, ti := range e.plan.TermOrder {
		t := e.expr.Terms[ti]
		if t.Eval(a) == boolexpr.False {
			continue
		}
		for _, li := range e.plan.LiteralOrder[ti] {
			l := t.Literals[li].Label
			if a.Get(l) == boolexpr.Unknown && !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}

// NextExpiry returns the earliest future expiry among entries that are
// still load-bearing (their label appears in a term not yet ruled out).
// The caller schedules a recheck then: if the query is still pending, the
// expired label must be refetched.
func (e *Engine) NextExpiry(now time.Time) (time.Time, bool) {
	a := e.Assignment(now)
	var (
		best  time.Time
		found bool
	)
	for _, ti := range e.plan.TermOrder {
		t := e.expr.Terms[ti]
		if t.Eval(a) == boolexpr.False {
			continue
		}
		for _, lit := range t.Literals {
			en, ok := e.entries[lit.Label]
			if !ok || !en.Expires.After(now) {
				continue
			}
			if !found || en.Expires.Before(best) {
				best = en.Expires
				found = true
			}
		}
	}
	return best, found
}
