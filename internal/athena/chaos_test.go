package athena

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"athena/internal/trust"
)

// TestChaosSeeds runs two seeds of drawn fault schedules on every chaos
// fleet and wants no fleet invariant violated. athena-sim -fig chaos runs
// more seeds (ci.sh a budgeted count, make chaos a long one).
func TestChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fleets run for minutes of virtual time")
	}
	for _, f := range ChaosFleets() {
		for seed := int64(1); seed <= 2; seed++ {
			rep, err := RunChaos(f, seed, -1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Issued == 0 || rep.Lost == 0 {
				t.Errorf("%s seed %d: %d decisions issued, %d frames lost; the schedule did not bite", f.Name, seed, rep.Issued, rep.Lost)
			}
			if len(rep.Violations) == 0 {
				continue
			}
			if rep, err = ShrinkChaos(f, rep); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s seed %d, shortest failing prefix %d faults:\n%s\nreplay: %s",
				f.Name, seed, len(rep.Schedule), strings.Join(rep.Violations, "\n"), rep.ReplayCommand())
		}
	}
}

// A forward's retransmit chain ends with its query: on sec7-lvfl seed 7,
// one partition at 0.33 s for 14.8 s left a forwarder's mark on a 1 MB
// object pending past Quiescent's minute while waiters carried the interest
// TTL and not their query's deadline (replay: go run ./cmd/athena-sim -fig
// chaos -seed 7 -reps 1 -faults 1).
func TestChaosRetransmitChainEndsWithQuery(t *testing.T) {
	rep, err := RunChaos(ChaosFleets()[0], 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet != "sec7-lvfl" || len(rep.Violations) > 0 {
		t.Errorf("%s seed 7, one fault: %s", rep.Fleet, strings.Join(rep.Violations, "\n"))
	}
}

// A chaos run is a pure function of its fleet, seed and prefix length:
// what ShrinkChaos and the replay command rely on.
func TestChaosRunsReplay(t *testing.T) {
	f := ChaosFleets()[0]
	a, err := RunChaos(f, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(f, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("two runs differ:\n%v\n%v", a, b)
	}
	if len(a.Schedule) != 5 {
		t.Errorf("a 5-fault prefix ran %d faults", len(a.Schedule))
	}
	full, err := RunChaos(f, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(full.Schedule[:5]) != fmt.Sprint(a.Schedule) {
		t.Error("a prefix is not the full schedule's first faults")
	}
}

// Each checkpoint check and each hook reports the defect it is for, on a
// node the rig breaks by hand, and a healthy node reports nothing.
func TestChaosChecksSeeViolations(t *testing.T) {
	swim := func(c *Config) { c.HeartbeatInterval, c.GossipFanout = 2*time.Second, 2 }
	for _, tc := range []struct {
		name    string
		want    string
		breakIt func(r *stopRig)
	}{
		{"healthy", "", func(*stopRig) {}},
		{"forged cached record", "fails under the current key", func(r *stopRig) {
			rec := &trust.Label{Name: "la", Value: true, Computed: r.now, Validity: time.Minute}
			r.n.signer.Sign(rec)
			rec.Value = false
			r.n.labels.Put(rec)
		}},
		{"seq gone back", "went back", func(r *stopRig) { r.n.audit.seqs = map[string]uint64{"a": 1 << 40} }},
		{"probe outside its window", "outstanding outside", func(r *stopRig) {
			r.n.member.swim.probes[7] = &probeState{target: "a"}
		}},
		{"stale suspect", "suspect for", func(r *stopRig) { r.n.member.swim.suspects["a"] = r.now.Add(-time.Hour) }},
		{"stale label served", "past its expiry", func(r *stopRig) {
			r.n.audit.served(&trust.Label{Name: "la", Computed: r.now.Add(-time.Hour), Validity: time.Minute}, r.now)
		}},
		{"markless forward", "no live mark", func(r *stopRig) { r.n.audit.forwarded(r.n.interest, "/cam/c", r.now) }},
		{"decision on expired evidence", "past its validity", func(r *stopRig) {
			id := r.query(t, "la")
			q := r.n.queries[id]
			_ = q.engine.Set("la", true, r.now.Add(time.Second), "a", "")
			r.n.audit.recorded(q, QueryResult{QueryID: id, Status: q.engine.Step(r.now), Finished: r.now.Add(2 * time.Second)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStopRig(t, false, swim)
			r.n.audit = &chaosAudit{}
			r.n.chaosViolations() // the first checkpoint records the seq vector
			tc.breakIt(r)
			got := strings.Join(r.n.chaosViolations(), "\n")
			if tc.want == "" && got != "" || !strings.Contains(got, tc.want) {
				t.Errorf("violations %q, want one containing %q", got, tc.want)
			}
		})
	}
}
