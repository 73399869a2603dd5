package main

// The Section VIII anticipation machinery: missions follow prescribed
// workflows — flowcharts of decision points — so, given the current
// decision query, the next decisions (and therefore the labels and
// evidence objects they will need) are known before they are asked for.
// "Anticipating what information is needed next ... gives the system more
// time to acquire it before it is actually used."

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"athena"
)

// Step is one decision point in a workflow.
type Step struct {
	// ID names the step.
	ID string
	// Expr is the decision logic evaluated at this step.
	Expr athena.DNF
	// Deadline is the decision deadline once the step activates.
	Deadline time.Duration
	// OnTrue and OnFalse list successor step ids for each outcome.
	// Empty means the workflow ends on that outcome.
	OnTrue, OnFalse []string
}

// Workflow is a flowchart of decision points. Cycles are allowed
// (standing procedures loop); references must resolve.
type Workflow struct {
	start string
	steps map[string]*Step
}

// Errors returned by Validate and accessors.
var (
	ErrUnknownStep   = errors.New("workflow: unknown step")
	ErrNoStart       = errors.New("workflow: start step missing")
	ErrDuplicateStep = errors.New("workflow: duplicate step")
)

// NewWorkflow creates a workflow that begins at the step named start.
func NewWorkflow(start string) *Workflow {
	return &Workflow{start: start, steps: make(map[string]*Step)}
}

// AddStep registers a decision point.
func (w *Workflow) AddStep(s Step) error {
	if s.ID == "" {
		return errors.New("workflow: step needs an ID")
	}
	if _, dup := w.steps[s.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateStep, s.ID)
	}
	copied := s
	copied.OnTrue = append([]string(nil), s.OnTrue...)
	copied.OnFalse = append([]string(nil), s.OnFalse...)
	w.steps[s.ID] = &copied
	return nil
}

// Step returns a step by id.
func (w *Workflow) Step(id string) (Step, bool) {
	s, ok := w.steps[id]
	if !ok {
		return Step{}, false
	}
	return *s, true
}

// Validate checks that the start step exists and all successor references
// resolve.
func (w *Workflow) Validate() error {
	if _, ok := w.steps[w.start]; !ok {
		return fmt.Errorf("%w: %q", ErrNoStart, w.start)
	}
	for id, s := range w.steps {
		for _, next := range append(append([]string(nil), s.OnTrue...), s.OnFalse...) {
			if _, ok := w.steps[next]; !ok {
				return fmt.Errorf("%w: %q referenced from %q", ErrUnknownStep, next, id)
			}
		}
	}
	return nil
}

// Successors lists the steps reachable from id under the given outcome.
func (w *Workflow) Successors(id string, outcome bool) []string {
	s, ok := w.steps[id]
	if !ok {
		return nil
	}
	if outcome {
		return append([]string(nil), s.OnTrue...)
	}
	return append([]string(nil), s.OnFalse...)
}

// Anticipated is a label the workflow may need soon.
type Anticipated struct {
	// Label is the predicate that may need evidence.
	Label string
	// Weight scores how soon/likely: 1/2^d summed over reachable steps
	// at distance d >= 1 that reference the label. Higher = needed
	// sooner.
	Weight float64
}

// Anticipate returns the labels referenced by decision points reachable
// from the current step within the given horizon (in steps, >= 1),
// weighted by proximity: a label needed by the immediate next decision
// outweighs one needed three decisions out. Labels already referenced by
// the current step are excluded (they are being fetched right now, not
// anticipated). Deterministic: results sort by descending weight, then
// label.
func (w *Workflow) Anticipate(from string, horizon int) ([]Anticipated, error) {
	cur, ok := w.steps[from]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStep, from)
	}
	current := make(map[string]bool)
	for _, l := range cur.Expr.Labels() {
		current[l] = true
	}

	weights := make(map[string]float64)
	// BFS over both outcomes, tracking the shortest distance at which
	// each step is reachable (cycles visit each step once).
	type frontierItem struct {
		id   string
		dist int
	}
	seen := map[string]int{from: 0}
	frontier := []frontierItem{{id: from, dist: 0}}
	for len(frontier) > 0 {
		item := frontier[0]
		frontier = frontier[1:]
		if item.dist >= horizon {
			continue
		}
		step := w.steps[item.id]
		for _, next := range append(append([]string(nil), step.OnTrue...), step.OnFalse...) {
			d := item.dist + 1
			if prev, visited := seen[next]; visited && prev <= d {
				continue
			}
			seen[next] = d
			frontier = append(frontier, frontierItem{id: next, dist: d})
			for _, l := range w.steps[next].Expr.Labels() {
				if !current[l] {
					weights[l] += 1 / float64(int(1)<<d)
				}
			}
		}
	}

	out := make([]Anticipated, 0, len(weights))
	for l, weight := range weights {
		out = append(out, Anticipated{Label: l, Weight: weight})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return out[a].Label < out[b].Label
	})
	return out, nil
}

// Path records one traversed decision point and its outcome.
type Path struct {
	// Step is the decision point id.
	Step string
	// Outcome is the decision reached.
	Outcome bool
	// At is when the decision was made.
	At time.Time
}

// Runner walks a workflow, one decision at a time. Branching with
// multiple successors takes the first (doctrine lists alternatives in
// priority order).
type Runner struct {
	wf      *Workflow
	current string
	done    bool
	history []Path
}

// NewRunner starts a runner at the workflow's start step. The workflow
// must validate.
func NewRunner(wf *Workflow) (*Runner, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	return &Runner{wf: wf, current: wf.start}, nil
}

// Current returns the active decision point; ok=false once the workflow
// has ended.
func (r *Runner) Current() (Step, bool) {
	if r.done {
		return Step{}, false
	}
	return r.wf.Step(r.current)
}

// History returns the decisions taken so far.
func (r *Runner) History() []Path {
	return append([]Path(nil), r.history...)
}

// Resolve records the current decision's outcome and advances to the next
// step. It reports whether the workflow continues.
func (r *Runner) Resolve(outcome bool, at time.Time) (continues bool, err error) {
	if r.done {
		return false, errors.New("workflow: already finished")
	}
	r.history = append(r.history, Path{Step: r.current, Outcome: outcome, At: at})
	candidates := r.wf.Successors(r.current, outcome)
	if len(candidates) == 0 {
		r.done = true
		return false, nil
	}
	next := candidates[0]
	if _, ok := r.wf.Step(next); !ok {
		return false, fmt.Errorf("%w: %q", ErrUnknownStep, next)
	}
	r.current = next
	return true, nil
}

// Anticipate is the runner-relative view of Workflow.Anticipate.
func (r *Runner) Anticipate(horizon int) ([]Anticipated, error) {
	if r.done {
		return nil, nil
	}
	return r.wf.Anticipate(r.current, horizon)
}
