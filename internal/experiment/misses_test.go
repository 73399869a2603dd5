package experiment

import (
	"testing"
	"time"

	"athena/internal/athena"
	"athena/internal/core"
	"athena/internal/workload"
)

func TestMissCause(t *testing.T) {
	req := func(attempts int, inFlight time.Duration, suspect bool) athena.Waiting {
		return athena.Waiting{Object: "/o", Source: "s", Attempts: attempts, Sends: attempts + 1, InFlight: inFlight, Suspect: suspect}
	}
	never := athena.Waiting{Label: "l"}
	answered, first, retried, suspect := req(0, 0, false), req(0, time.Second, false), req(2, 0, false), req(4, time.Second, true)
	for _, c := range []struct {
		waiting []athena.Waiting
		want    int
	}{
		{nil, missUnresolvable},
		{[]athena.Waiting{answered}, missUnresolvable},
		{[]athena.Waiting{answered, never}, missNeverRequested},
		{[]athena.Waiting{first, never}, missFirstAttempt},
		{[]athena.Waiting{never, first}, missFirstAttempt},
		{[]athena.Waiting{retried, first, never}, missRetryBackoff},
		{[]athena.Waiting{first, retried}, missRetryBackoff},
		{[]athena.Waiting{first, retried, suspect, never}, missSourceSuspect},
	} {
		if got := missCause(c.waiting); got != c.want {
			t.Errorf("missCause(%+v) = %s, want %s", c.waiting, missNames[got], missNames[c.want])
		}
	}
}

// TestMissesSumToExpired runs the misses table at the Sec. VII scale on
// two schemes and two repetitions: every expired query carries a
// post-mortem, no resolved one does, and each scheme's causes sum to its
// runs' Stats.Expired, which is not zero.
func TestMissesSumToExpired(t *testing.T) {
	cfg := Default()
	cfg.Reps = 2
	cfg.Schemes = []athena.Scheme{athena.SchemeCMP, athena.SchemeLVFL}
	rows, err := Misses(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		sum := 0
		for _, n := range r.Causes {
			sum += n
		}
		if sum != r.Expired {
			t.Errorf("%s: causes sum to %d, Stats.Expired is %d", r.Scheme, sum, r.Expired)
		}
		total += r.Expired
	}
	if total == 0 {
		t.Fatal("no query expired: the table was not exercised")
	}

	scens, err := scenarios(cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runAll(cfg, len(scens), func(i int) (*workload.Scenario, athena.ClusterConfig) {
		return scens[i], athena.ClusterConfig{Scheme: athena.SchemeCMP}
	}, func(_ int, c *athena.Cluster) {
		for _, n := range c.Nodes {
			for _, r := range n.Results() {
				if (r.Status == core.Expired) != (len(r.Waiting) > 0) {
					t.Errorf("%s %v: waiting = %+v", r.QueryID, r.Status, r.Waiting)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
