// Overload: hierarchical semantic naming under congestion (Section V).
//
// A bottleneck link out of a disaster area can carry 4 MB before the
// reporting deadline, but 20 MB of camera imagery is queued. The example
// contrasts two deliveries:
//
//   - FIFO: forward whatever arrived first (mostly near-duplicate shots
//     of the same bridge);
//   - infomax triage (Section V-B): forward by marginal information
//     utility per byte, using shared name prefixes to estimate redundancy.
//
// Run with: go run ./examples/overload
package main

import (
	"fmt"
	"log"
	"math/rand"

	"athena/internal/infomax"
	"athena/internal/names"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(3))

	// The backlog: 40 shots, heavily redundant (four sites, few angles).
	sites := []string{"/city/bridge", "/city/market", "/city/hospital", "/city/station"}
	queue := make([]infomax.Item, 40)
	for i := range queue {
		queue[i] = infomax.Item{
			Name: names.MustParse(fmt.Sprintf("%s/cam%d/shot%d",
				sites[rng.Intn(len(sites))], rng.Intn(3), rng.Intn(4))),
			Size:        int64(200_000 + rng.Intn(800_000)),
			BaseUtility: 1 + rng.Float64()*9,
		}
	}
	const budget = 4_000_000

	// FIFO delivery.
	var fifo []infomax.Item
	var used int64
	for _, it := range queue {
		if used+it.Size <= budget {
			used += it.Size
			fifo = append(fifo, it)
		}
	}

	// Infomax triage.
	order := infomax.Greedy(queue, budget)
	triaged := make([]infomax.Item, len(order))
	for i, idx := range order {
		triaged[i] = queue[idx]
	}

	fmt.Printf("bottleneck budget: %.1f MB of %.1f MB queued\n\n",
		float64(budget)/1e6, float64(totalSize(queue))/1e6)
	fmt.Printf("%-22s%10s%12s\n", "policy", "items", "utility")
	fmt.Printf("%-22s%10d%12.1f\n", "fifo", len(fifo), infomax.SetUtility(fifo))
	fmt.Printf("%-22s%10d%12.1f\n", "infomax triage", len(triaged), infomax.SetUtility(triaged))
	return nil
}

func totalSize(items []infomax.Item) int64 {
	var n int64
	for _, it := range items {
		n += it.Size
	}
	return n
}
