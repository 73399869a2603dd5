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
//
// The query is compiled once, at construction: the sorted label set is the
// index space, a literal is a label index plus a polarity, and held
// evidence is a slice indexed the same way, so the questions a pump asks
// (Step, NextLabel, NextExpiry, TermValue, LiteralUnknown) are loops over
// small integers that allocate nothing.
//
// An Engine is not safe for concurrent use, its read methods included:
// EachUnknown, UnknownLabels, Wanted and WantsAny mark labels in per-engine
// scratch, and remember the instant they marked at. A node only touches a
// query's engine under its own mutex.
type Engine struct {
	id       string
	expr     boolexpr.DNF
	deadline time.Time
	meta     boolexpr.MetaTable
	// plan orders the walk over terms and literals. The engine only reads it.
	plan boolexpr.QueryPlan

	// labels is the set of labels the expression references, sorted and
	// fixed at construction: Labels hands it out, Set searches it, and a
	// label's position in it is its index everywhere below.
	labels []string
	// slots[i] is the evidence held for labels[i].
	slots []slot
	// terms[ti][li] is expr.Terms[ti].Literals[li] over label indices. The
	// table is the engine's own, in the expression's order; plan order is
	// applied on the walk.
	terms [][]literal
	// gen is the current mark of EachUnknown, Wanted and WantsAny: a slot
	// whose mark equals it has been visited by the call in progress.
	gen uint32
	// marksOK reports that the slots carrying gen are exactly those a mark
	// pass at instant markedAt leaves marked: no Set has changed a slot
	// since. A pass that visits nothing at that instant is then a no-op.
	marksOK  bool
	markedAt time.Time

	resolved   Status
	resolvedAt time.Time
}

// literal is one compiled boolexpr.Literal.
type literal struct {
	label   int32
	negated bool
}

// slot is the evidence held for one label. An expired entry is still held:
// Entry returns it and Set compares new evidence against it.
type slot struct {
	Entry
	held bool
	mark uint32
}

// NewEngine creates an engine for a decision query. The metadata informs
// the short-circuit plan (Section III-A); missing entries get neutral
// defaults.
func NewEngine(id string, expr boolexpr.DNF, deadline time.Time, meta boolexpr.MetaTable) *Engine {
	return NewEngineWithPlan(id, expr, deadline, meta, boolexpr.GreedyPlan(expr, meta))
}

// NewEngineWithPlan is NewEngine with an explicit evaluation plan, for
// callers that order retrieval by other criteria (e.g. the LVF scheduler
// orders literals by validity instead of short-circuit probability) or
// that already hold the plan.
func NewEngineWithPlan(id string, expr boolexpr.DNF, deadline time.Time, meta boolexpr.MetaTable, plan boolexpr.QueryPlan) *Engine {
	labels := expr.Labels()
	nlit := 0
	for _, t := range expr.Terms {
		nlit += len(t.Literals)
	}
	lits := make([]literal, 0, nlit)
	terms := make([][]literal, len(expr.Terms))
	for ti, t := range expr.Terms {
		from := len(lits)
		for _, l := range t.Literals {
			i, _ := slices.BinarySearch(labels, l.Label)
			lits = append(lits, literal{label: int32(i), negated: l.Negated})
		}
		terms[ti] = lits[from:len(lits):len(lits)]
	}
	return &Engine{
		id:       id,
		expr:     expr,
		deadline: deadline,
		meta:     meta,
		plan:     plan,
		labels:   labels,
		slots:    make([]slot, len(labels)),
		terms:    terms,
		resolved: Pending,
	}
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

// Plan returns the short-circuit evaluation plan in use. It may be shared
// with other engines: callers must not modify it.
func (e *Engine) Plan() boolexpr.QueryPlan { return e.plan }

// Set records a resolved label. Stale entries (expires before now) are
// accepted but will read as Unknown. Setting after resolution is a no-op.
func (e *Engine) Set(label string, value bool, expires time.Time, source, annotator string) error {
	i, found := slices.BinarySearch(e.labels, label)
	if !found {
		return fmt.Errorf("%w: %q", ErrUnknownLabel, label)
	}
	if e.resolved != Pending {
		return nil
	}
	s := &e.slots[i]
	// Keep the longer-lived of the old and new evidence for this value;
	// a fresh observation always replaces an older one regardless.
	if s.held && s.Value == value && s.Expires.After(expires) {
		return nil
	}
	s.Entry, s.held = Entry{Value: value, Expires: expires, Source: source, Annotator: annotator}, true
	e.marksOK = false
	return nil
}

// Entry returns the held entry for a label, expired or not.
func (e *Engine) Entry(label string) (Entry, bool) {
	i, found := slices.BinarySearch(e.labels, label)
	if !found || !e.slots[i].held {
		return Entry{}, false
	}
	return e.slots[i].Entry, true
}

// unknown reports whether label i reads Unknown at instant now: nothing is
// held for it, or what is held is past expiry. Freshness at the exact
// expiry instant counts as fresh, matching object.Object.FreshAt so cache
// and engine agree and cannot livelock each other.
func (e *Engine) unknown(i int32, now time.Time) bool {
	s := &e.slots[i]
	return !s.held || now.After(s.Expires)
}

// TermValue is the three-valued reading at instant now of term ti of the
// expression (a TermOrder entry of the plan): True when the course of
// action is viable, False when ruled out, Unknown while evidence is owed.
func (e *Engine) TermValue(ti int, now time.Time) boolexpr.Value {
	result := boolexpr.True
	for _, l := range e.terms[ti] {
		if e.unknown(l.label, now) {
			result = boolexpr.Unknown
		} else if e.slots[l.label].Value == l.negated {
			return boolexpr.False
		}
	}
	return result
}

// LiteralUnknown reports whether literal li of term ti (a LiteralOrder
// entry of the plan) has no fresh evidence at instant now.
func (e *Engine) LiteralUnknown(ti, li int, now time.Time) bool {
	return e.unknown(e.terms[ti][li].label, now)
}

// eval is the three-valued disjunction of the terms at instant now.
func (e *Engine) eval(now time.Time) boolexpr.Value {
	result := boolexpr.False
	for ti := range e.terms {
		switch e.TermValue(ti, now) {
		case boolexpr.True:
			return boolexpr.True
		case boolexpr.Unknown:
			result = boolexpr.Unknown
		}
	}
	return result
}

// Step advances the engine's status at instant now and returns it. Once a
// terminal status is reached it is sticky: a decision made in time stays
// made (condition (ii) of Section I demands freshness at decision time,
// which Step enforces by evaluating only unexpired entries).
func (e *Engine) Step(now time.Time) Status {
	if e.resolved != Pending {
		return e.resolved
	}
	switch e.eval(now) {
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
	for _, ti := range e.plan.TermOrder {
		if e.TermValue(ti, now) != boolexpr.Unknown {
			continue // short-circuited; try the next course of action
		}
		for _, li := range e.plan.LiteralOrder[ti] {
			if l := e.terms[ti][li].label; e.unknown(l, now) {
				return e.labels[l], true
			}
		}
	}
	return "", false
}

// EachUnknown calls visit with the index in Labels of every label that
// currently reads Unknown in the first undecided term and all later terms
// — the candidate set batch schemes fetch eagerly — once each, in plan
// order. visit must not call back into the engine.
//
// The walk starts a new mark generation and leaves those labels, and no
// others, carrying the mark, which is how Wanted and WantsAny (a nil
// visit) find them. A pass with no visitor at the instant of the last
// pass, with no Set since, would leave the same marks, so it leaves the
// ones there: Wanted and WantsAny after a pump cost a search per label,
// not a walk of the plan. The instant is compared with ==, not Equal: a
// memo hit needs the very instant, whose every comparison with an expiry
// comes out the same.
func (e *Engine) EachUnknown(now time.Time, visit func(label int)) {
	if visit == nil && e.marksOK && e.markedAt == now {
		return
	}
	e.gen++
	if e.gen == 0 { // wrapped: no slot may still carry a mark from last time round
		for i := range e.slots {
			e.slots[i].mark = 0
		}
		e.gen = 1
	}
	e.marksOK, e.markedAt = true, now
	for _, ti := range e.plan.TermOrder {
		if e.TermValue(ti, now) == boolexpr.False {
			continue
		}
		for _, li := range e.plan.LiteralOrder[ti] {
			l := e.terms[ti][li].label
			if s := &e.slots[l]; s.mark != e.gen && e.unknown(l, now) {
				s.mark = e.gen
				if visit != nil {
					visit(int(l))
				}
			}
		}
	}
}

// UnknownLabels lists the labels EachUnknown visits, in its order.
func (e *Engine) UnknownLabels(now time.Time) []string {
	var out []string
	e.EachUnknown(now, func(l int) { out = append(out, e.labels[l]) })
	return out
}

// Wanted returns those of labels the query still wants at instant now —
// the ones UnknownLabels would list — in the order given, or nil for none.
// It is how a request for an object names the labels it is after: the
// result is the request's, allocated once at its exact size.
func (e *Engine) Wanted(labels []string, now time.Time) []string {
	e.EachUnknown(now, nil)
	n := 0
	for _, l := range labels {
		if e.marked(l) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, l := range labels {
		if e.marked(l) {
			out = append(out, l)
		}
	}
	return out
}

// WantsAny reports whether Wanted(labels, now) would list any label,
// without building the list.
func (e *Engine) WantsAny(labels []string, now time.Time) bool {
	e.EachUnknown(now, nil)
	for _, l := range labels {
		if e.marked(l) {
			return true
		}
	}
	return false
}

// marked reports whether label carries the mark of the last EachUnknown.
func (e *Engine) marked(label string) bool {
	i, found := slices.BinarySearch(e.labels, label)
	return found && e.slots[i].mark == e.gen
}

// NextExpiry returns the earliest future expiry among entries that are
// still load-bearing (their label appears in a term not yet ruled out).
// The caller schedules a recheck then: if the query is still pending, the
// expired label must be refetched. Future is strict: an entry expiring
// exactly now still reads fresh, but there is no later instant to wait for.
func (e *Engine) NextExpiry(now time.Time) (time.Time, bool) {
	var (
		best  time.Time
		found bool
	)
	for ti, t := range e.terms {
		if e.TermValue(ti, now) == boolexpr.False {
			continue
		}
		for _, l := range t {
			s := &e.slots[l.label]
			if !s.held || !s.Expires.After(now) {
				continue
			}
			if !found || s.Expires.Before(best) {
				best = s.Expires
				found = true
			}
		}
	}
	return best, found
}
