package experiment

import (
	"fmt"
	"strings"

	"athena/internal/athena"
	"athena/internal/core"
	"athena/internal/workload"
)

// The causes a missed deadline is put down to, in the misses table's row
// order.
const (
	missNeverRequested = iota
	missFirstAttempt
	missRetryBackoff
	missSourceSuspect
	missUnresolvable
	missCauses
)

var missNames = [missCauses]string{
	"never requested",
	"in flight, 1st attempt",
	"in retry backoff",
	"source suspected",
	"label unresolvable",
}

// missCause puts an expired query's post-mortem (QueryResult.Waiting) down
// to one cause, the most specific that applies: a request to a suspected
// source, then a request that had timed out before, then one still out on
// its first attempt, then a wanted label nobody requested. A query none of
// these fit had requested every label it wanted and had its answers, yet
// the labels were unknown at its deadline: unresolvable.
func missCause(waiting []athena.Waiting) int {
	cause := missUnresolvable
	for _, w := range waiting {
		switch {
		case w.Object == "":
			if cause == missUnresolvable {
				cause = missNeverRequested
			}
		case w.Suspect:
			return missSourceSuspect
		case w.Attempts > 0:
			cause = missRetryBackoff
		case w.InFlight > 0 && cause != missRetryBackoff:
			cause = missFirstAttempt
		}
	}
	return cause
}

// MissRow is one scheme's column of the misses table: its expired queries
// by cause, and Stats.Expired over the same runs, which the causes sum to.
type MissRow struct {
	// Scheme identifies the retrieval scheme.
	Scheme athena.Scheme
	// Causes counts expired queries by missCause.
	Causes [missCauses]int
	// Expired is the runs' Stats.Expired.
	Expired int
}

// Misses runs Figure 2's scenarios (every dynamics level, Reps
// repetitions each) under every scheme and sorts each expired query by
// what it was still waiting on at its deadline: where deadlines die.
func Misses(cfg Config) ([]MissRow, error) {
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = athena.Schemes()
	}
	scens, err := scenarios(cfg, fig2Dynamics...)
	if err != nil {
		return nil, err
	}
	schemes := len(cfg.Schemes)
	// Run j is scheme j%schemes on scenario j/schemes; each run counts
	// into its own slot, and the slots are summed in run order.
	causes := make([][missCauses]int, len(scens)*schemes)
	outs, err := runAll(cfg, len(causes), func(j int) (*workload.Scenario, athena.ClusterConfig) {
		return scens[j/schemes], athena.ClusterConfig{Scheme: cfg.Schemes[j%schemes]}
	}, func(j int, c *athena.Cluster) {
		for _, n := range c.Nodes {
			for _, r := range n.Results() {
				if r.Status == core.Expired {
					causes[j][missCause(r.Waiting)]++
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]MissRow, schemes)
	for j := range causes {
		row := &rows[j%schemes]
		row.Scheme = cfg.Schemes[j%schemes]
		row.Expired += outs[j].Node.Expired
		for k, v := range causes[j] {
			row.Causes[k] += v
		}
	}
	return rows, nil
}

// RenderMisses prints the misses table: a row per cause, a column per
// scheme, and the expired total the rows sum to.
func RenderMisses(rows []MissRow) string {
	var b strings.Builder
	b.WriteString("Where deadlines die: expired queries by what they waited on (Figure 2 scenarios)\n")
	fmt.Fprintf(&b, "%-24s", "cause")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s", r.Scheme)
	}
	b.WriteByte('\n')
	for k, name := range missNames {
		fmt.Fprintf(&b, "%-24s", name)
		for _, r := range rows {
			fmt.Fprintf(&b, "%8d", r.Causes[k])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-24s", "expired")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d", r.Expired)
	}
	b.WriteByte('\n')
	return b.String()
}
