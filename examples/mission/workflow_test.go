package main

import (
	"errors"
	"testing"
	"time"

	"athena"
)

func dnf(s string) athena.DNF { return athena.ToDNF(athena.MustParseExpr(s)) }

// rescueWorkflow models a post-disaster doctrine: assess the scene, then
// either evacuate (route decision) or shelter (supply decision); an
// evacuation decision leads to a transport decision.
func rescueWorkflow(t *testing.T) *Workflow {
	t.Helper()
	w := NewWorkflow("assess")
	steps := []Step{
		{ID: "assess", Expr: dnf("sceneSafe & accessOpen"), Deadline: 30 * time.Second,
			OnTrue: []string{"evacuate"}, OnFalse: []string{"shelter"}},
		{ID: "evacuate", Expr: dnf("(routeA & bridgeUp) | routeB"), Deadline: time.Minute,
			OnTrue: []string{"transport"}, OnFalse: []string{"shelter"}},
		{ID: "shelter", Expr: dnf("supplies & medkit"), Deadline: time.Minute},
		{ID: "transport", Expr: dnf("fuelOK & driverReady"), Deadline: time.Minute},
	}
	for _, s := range steps {
		if err := w.AddStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestValidate(t *testing.T) {
	w := NewWorkflow("missing")
	if err := w.Validate(); !errors.Is(err, ErrNoStart) {
		t.Errorf("err = %v, want ErrNoStart", err)
	}
	w = NewWorkflow("a")
	if err := w.AddStep(Step{ID: "a", Expr: dnf("x"), OnTrue: []string{"ghost"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); !errors.Is(err, ErrUnknownStep) {
		t.Errorf("err = %v, want ErrUnknownStep", err)
	}
	if err := w.AddStep(Step{ID: "a", Expr: dnf("y")}); !errors.Is(err, ErrDuplicateStep) {
		t.Errorf("err = %v, want ErrDuplicateStep", err)
	}
	if err := w.AddStep(Step{}); err == nil {
		t.Error("empty step accepted")
	}
}

func TestSuccessors(t *testing.T) {
	w := rescueWorkflow(t)
	if got := w.Successors("assess", true); len(got) != 1 || got[0] != "evacuate" {
		t.Errorf("Successors(true) = %v", got)
	}
	if got := w.Successors("assess", false); len(got) != 1 || got[0] != "shelter" {
		t.Errorf("Successors(false) = %v", got)
	}
	if got := w.Successors("transport", true); got != nil {
		t.Errorf("terminal successors = %v", got)
	}
	if got := w.Successors("ghost", true); got != nil {
		t.Errorf("unknown successors = %v", got)
	}
}

func TestAnticipateWeightsByDistance(t *testing.T) {
	w := rescueWorkflow(t)
	ant, err := w.Anticipate("assess", 2)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[string]float64, len(ant))
	for _, a := range ant {
		weights[a.Label] = a.Weight
	}
	// Distance 1: evacuate (routeA, bridgeUp, routeB) and shelter
	// (supplies, medkit) at weight 0.5. Distance 2: transport (fuelOK,
	// driverReady) at 0.25. shelter is also reachable at distance 2 via
	// evacuate-false, but BFS keeps its shortest distance.
	if weights["routeA"] != 0.5 || weights["supplies"] != 0.5 {
		t.Errorf("distance-1 weights = %v", weights)
	}
	if weights["fuelOK"] != 0.25 {
		t.Errorf("distance-2 weight = %v", weights["fuelOK"])
	}
	// Current step's own labels are not anticipated.
	if _, ok := weights["sceneSafe"]; ok {
		t.Error("current step's label anticipated")
	}
	// Sorted by weight descending.
	for i := 1; i < len(ant); i++ {
		if ant[i].Weight > ant[i-1].Weight {
			t.Errorf("not sorted: %v", ant)
		}
	}
}

func TestAnticipateHorizonOne(t *testing.T) {
	w := rescueWorkflow(t)
	ant, err := w.Anticipate("assess", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ant {
		if a.Label == "fuelOK" || a.Label == "driverReady" {
			t.Errorf("horizon 1 leaked distance-2 label %s", a.Label)
		}
	}
	if _, err := w.Anticipate("ghost", 1); !errors.Is(err, ErrUnknownStep) {
		t.Errorf("err = %v", err)
	}
}

func TestAnticipateHandlesCycles(t *testing.T) {
	w := NewWorkflow("patrol")
	if err := w.AddStep(Step{ID: "patrol", Expr: dnf("areaClear"),
		OnTrue: []string{"patrol"}, OnFalse: []string{"investigate"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddStep(Step{ID: "investigate", Expr: dnf("intruder"),
		OnTrue: []string{"patrol"}}); err != nil {
		t.Fatal(err)
	}
	ant, err := w.Anticipate("patrol", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Must terminate and include intruder (distance 1), not loop.
	if len(ant) != 1 || ant[0].Label != "intruder" {
		t.Errorf("Anticipate = %v", ant)
	}
}

func TestRunnerWalk(t *testing.T) {
	w := rescueWorkflow(t)
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	step, ok := r.Current()
	if !ok || step.ID != "assess" {
		t.Fatalf("Current = %v %v", step, ok)
	}
	// Scene safe -> evacuate; route viable -> transport; fuel ok -> done.
	for i, outcome := range []bool{true, true, true} {
		cont, err := r.Resolve(outcome, t0.Add(time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && !cont {
			t.Fatalf("ended early at %d", i)
		}
		if i == 2 && cont {
			t.Fatal("did not end at terminal step")
		}
	}
	if _, ok := r.Current(); ok {
		t.Error("Current after end")
	}
	if _, err := r.Resolve(true, t0); err == nil {
		t.Error("Resolve after end accepted")
	}
	history := r.History()
	want := []string{"assess", "evacuate", "transport"}
	if len(history) != len(want) {
		t.Fatalf("history = %v", history)
	}
	for i := range want {
		if history[i].Step != want[i] || !history[i].Outcome {
			t.Errorf("history[%d] = %+v", i, history[i])
		}
	}
	if ant, err := r.Anticipate(3); err != nil || ant != nil {
		t.Errorf("Anticipate after end = %v, %v", ant, err)
	}
}

func TestRunnerFalseBranch(t *testing.T) {
	w := rescueWorkflow(t)
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(false, t0); err != nil {
		t.Fatal(err)
	}
	step, ok := r.Current()
	if !ok || step.ID != "shelter" {
		t.Errorf("Current = %v", step.ID)
	}
}

func TestRunnerTakesFirstSuccessor(t *testing.T) {
	w := NewWorkflow("a")
	if err := w.AddStep(Step{ID: "a", Expr: dnf("x"), OnTrue: []string{"b", "c"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddStep(Step{ID: "b", Expr: dnf("y")}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddStep(Step{ID: "c", Expr: dnf("z")}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(true, t0); err != nil {
		t.Fatal(err)
	}
	if step, _ := r.Current(); step.ID != "b" {
		t.Errorf("first successor not taken: at %s", step.ID)
	}
}

func TestNewRunnerValidates(t *testing.T) {
	w := NewWorkflow("missing")
	if _, err := NewRunner(w); err == nil {
		t.Error("invalid workflow accepted")
	}
}
