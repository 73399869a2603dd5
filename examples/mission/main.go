// Mission: a Section VIII workflow walked one decision point at a time
// over a simulated network, with a learned label model printed at the end.
//
// A search-and-rescue team follows doctrine: ASSESS the scene; if safe,
// decide a ROUTE; then clear TRANSPORT. Because the workflow is known
// (workflow.go), the labels the next decision points will reference are
// known too; the example prints them beside each step, weighted by
// distance. It does not fetch them early: a node fetches evidence only
// for a query it has issued. Each step's query is issued once the
// previous step's run window has ended. An estimator (estimator.go)
// records every step's label values and prints how often routeA and
// routeB held; nothing feeds those numbers back into a node's planner.
//
// Run with: go run ./examples/mission
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"athena"
)

// missionWorld: the scene is safe, route A is blocked, route B is open,
// transport checks pass.
type missionWorld struct{}

func (missionWorld) LabelValue(label string, _ time.Time) bool {
	return label != "routeA"
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Doctrine as a workflow.
	wf := NewWorkflow("assess")
	steps := []Step{
		{ID: "assess", Expr: toDNF("sceneSafe & accessOpen"), Deadline: 30 * time.Second,
			OnTrue: []string{"route"}},
		{ID: "route", Expr: toDNF("routeA | routeB"), Deadline: 30 * time.Second,
			OnTrue: []string{"transport"}},
		{ID: "transport", Expr: toDNF("fuelOK & driverReady"), Deadline: 30 * time.Second},
	}
	for _, s := range steps {
		if err := wf.AddStep(s); err != nil {
			return err
		}
	}
	runner, err := NewRunner(wf)
	if err != nil {
		return err
	}

	// 2. A small field network: the team node plus one sensor hub that
	// evidences everything.
	start := time.Date(2026, 1, 3, 6, 0, 0, 0, time.UTC)
	net := athena.NewSimNetwork(start)
	if err := net.AddLink("team", "hub", 125_000, 5*time.Millisecond); err != nil {
		return err
	}
	hub := &athena.SourceDescriptor{
		Name:     athena.MustParseName("/field/hub"),
		Size:     300_000,
		Validity: 90 * time.Second,
		Labels: []string{"sceneSafe", "accessOpen", "routeA", "routeB",
			"fuelOK", "driverReady"},
		Source:   "hub",
		ProbTrue: 0.7,
	}
	if err := net.AddNode(athena.SimNodeConfig{ID: "team", World: missionWorld{}}); err != nil {
		return err
	}
	if err := net.AddNode(athena.SimNodeConfig{ID: "hub", World: missionWorld{}, Source: hub}); err != nil {
		return err
	}
	team, err := net.Node("team")
	if err != nil {
		return err
	}

	// 3. The estimator records the labels every decision referenced.
	estimator := NewEstimator()

	// 4. Walk the workflow: print the labels the next decision points
	// will reference, then issue this decision point's query.
	for {
		step, ok := runner.Current()
		if !ok {
			break
		}
		ant, err := runner.Anticipate(2)
		if err != nil {
			return err
		}
		var warm []string
		for _, a := range ant {
			warm = append(warm, fmt.Sprintf("%s(%.2f)", a.Label, a.Weight))
		}
		fmt.Printf("%s step %-10s deciding %q\n", net.Now().Format("15:04:05"), step.ID, step.Expr)
		if len(warm) > 0 {
			fmt.Printf("          anticipating next: %s\n", strings.Join(warm, " "))
		}

		if _, err := team.QueryInit(step.Expr, step.Deadline); err != nil {
			return err
		}
		if err := net.Run(step.Deadline + 5*time.Second); err != nil {
			return err
		}
		results := team.Results()
		last := results[len(results)-1]
		outcome := last.Status == athena.ResolvedTrue
		fmt.Printf("          -> %s\n", last.Status)

		// Record each label's ground-truth value at the decision instant.
		for _, l := range step.Expr.Labels() {
			estimator.Observe(Observation{
				Label: l,
				Value: missionWorld{}.LabelValue(l, net.Now()),
				At:    net.Now(),
			})
		}

		if last.Status == athena.Expired {
			return fmt.Errorf("mission aborted: %s expired", step.ID)
		}
		cont, err := runner.Resolve(outcome, net.Now())
		if err != nil {
			return err
		}
		if !cont {
			break
		}
	}

	fmt.Println("\nmission complete; decision trail:")
	for _, p := range runner.History() {
		fmt.Printf("  %s %-10s -> %v\n", p.At.Format("15:04:05"), p.Step, p.Outcome)
	}
	fmt.Printf("total network traffic: %.2f MB\n", float64(net.BytesSent())/1e6)
	fmt.Printf("learned P(routeA) = %.2f, P(routeB) = %.2f\n",
		estimator.ProbTrue("routeA"), estimator.ProbTrue("routeB"))
	return nil
}

func toDNF(s string) athena.DNF { return athena.ToDNF(athena.MustParseExpr(s)) }
