// Churn: surviving source death with the live-membership layer.
//
// A base station decides whether an intersection is clear. Two cameras
// advertise the same label; camA is cheaper, so the planner fetches from
// it first. The instant the query is issued camA dies and stays dead. With
// live membership the survivors' failure detectors notice the silence,
// evict camA from their directory replicas, and the in-flight fetch is
// re-sourced to camB in time to beat the deadline. With the static
// directory the only recourse is the retransmission backoff ladder,
// which is far too slow for this deadline — the query expires.
//
// Run with: go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"time"

	"athena"
)

// world is the ground truth the cameras' annotators read.
type world struct{}

func (world) LabelValue(string, time.Time) bool { return true }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("--- camA dies as the query is issued and never returns ---")
	for _, membership := range []bool{true, false} {
		if err := churnRun(membership); err != nil {
			return err
		}
	}
	return nil
}

// build wires a star: base -- hub -- {camA, camB}. Both cameras cover
// intersectionClear; camA's smaller object makes it the preferred source.
func build(membership bool) (*athena.SimNetwork, *athena.Node, error) {
	start := time.Date(2026, 1, 1, 9, 0, 0, 0, time.UTC)
	net := athena.NewSimNetwork(start)
	if membership {
		if err := net.EnableMembership(2 * time.Second); err != nil {
			return nil, nil, err
		}
	}

	const mbps = 125_000.0
	for _, link := range [][2]string{{"base", "hub"}, {"hub", "camA"}, {"hub", "camB"}} {
		if err := net.AddLink(link[0], link[1], mbps, 5*time.Millisecond); err != nil {
			return nil, nil, err
		}
	}

	descFor := func(id string, size int64) *athena.SourceDescriptor {
		return &athena.SourceDescriptor{
			Name:     athena.MustParseName("/city/intersection/" + id),
			Size:     size,
			Validity: 2 * time.Minute,
			Labels:   []string{"intersectionClear"},
			Source:   id,
			ProbTrue: 0.5,
		}
	}
	for _, cfg := range []athena.SimNodeConfig{
		{ID: "base", Scheme: athena.SchemeLVF, World: world{}},
		{ID: "hub", Scheme: athena.SchemeLVF, World: world{}},
		{ID: "camA", Scheme: athena.SchemeLVF, World: world{}, Source: descFor("camA", 100_000)},
		{ID: "camB", Scheme: athena.SchemeLVF, World: world{}, Source: descFor("camB", 200_000)},
	} {
		if err := net.AddNode(cfg); err != nil {
			return nil, nil, err
		}
	}
	base, err := net.Node("base")
	if err != nil {
		return nil, nil, err
	}
	return net, base, nil
}

// churnRun kills camA as the query is issued and reports
// how the base fared: whether it evicted the dead source, who its
// directory now prefers for the label, and whether the decision beat
// its deadline.
func churnRun(membership bool) error {
	net, base, err := build(membership)
	if err != nil {
		return err
	}
	if err := net.ScheduleNodeOutage("camA", net.Now(), time.Hour); err != nil {
		return err
	}

	expr := athena.ToDNF(athena.MustParseExpr("intersectionClear"))
	if _, err := base.QueryInit(expr, 30*time.Second); err != nil {
		return err
	}
	if err := net.Run(40 * time.Second); err != nil {
		return err
	}

	res := base.Results()
	if len(res) == 0 {
		return fmt.Errorf("query did not finish")
	}
	mode := "membership on "
	if !membership {
		mode = "membership off"
	}
	fmt.Printf("%s  ->  %-12v (%v elapsed, %d evictions, preferred source now %q)\n",
		mode, res[0].Status,
		res[0].Finished.Sub(res[0].Issued).Round(100*time.Millisecond),
		base.Stats().Evictions,
		base.Directory().SourceForLabel("intersectionClear", nil))

	// The fleet-wide metrics registry tells the same story in numbers:
	// heartbeats flowed (membership on), the dead camera was evicted, and
	// retry timeouts fired while the fetch was stuck on it.
	m := net.Metrics()
	fmt.Printf("%s      heartbeats=%d evictions=%d retry_timeouts=%d failovers=%d cache_hit_ratio=%.2f\n",
		mode,
		m.Counter("membership.heartbeats_sent"),
		m.Counter("membership.evictions"),
		m.Counter("retry.timeouts"),
		m.Counter("retry.failovers"),
		m.Ratio("cache.hits", "cache.misses"))
	return nil
}
