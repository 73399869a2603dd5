package athena

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"athena/internal/core"
	"athena/internal/object"
	"athena/internal/workload"
)

// The order-independence sweep runs one scenario several times, each
// time with same-instant events in another order (simclock's
// Kernel.PermuteTies), and compares every decision with the schedule
// order's: its status, the evidence fresh when it finished (value, source
// and annotator per label) and its finish instant. Every run is audited as
// a chaos run is (checkpoints, then Quiescent). Each difference is sorted
// into a class that names why it may differ; one no class covers is a
// protocol whose result depends on which of two simultaneous frames is
// handled first.

// SweepClass is why a decision differs between two orders.
type SweepClass uint8

const (
	// SweepSame: status, evidence and finish instant agree.
	SweepSame SweepClass = iota
	// SweepInstant: the same status on the same evidence values and
	// sources, finished at another instant or on evidence of another age
	// (or with a label fetched in time in one order only).
	SweepInstant
	// SweepSource: the same status and values, a label from another
	// source or annotator.
	SweepSource
	// SweepWorld: a label read at another value, each fresh and each the
	// world's value at its sample instant — the world flipped between the
	// two fetches.
	SweepWorld
	// SweepExpiry: resolved in one order and expired in the other while
	// waiting on a request in flight, on a fleet with churn.
	SweepExpiry
	// SweepUnexplained: a difference no class above covers.
	SweepUnexplained

	sweepClasses
)

var sweepClassNames = [...]string{"same", "instant", "source", "world", "expiry", "unexplained"}

func (c SweepClass) String() string { return sweepClassNames[c] }

// DumpFleet is athena-sim -fig dump's fleet: gossip membership and churn
// on a 24-node grid, with data-plane batching at batchWindow (0 = off) and
// the directory in shards shards (0 = a full replica on every node).
func DumpFleet(batchWindow time.Duration, shards int) Fleet {
	wcfg := workload.DefaultConfig()
	wcfg.GridRows, wcfg.GridCols = 6, 6
	wcfg.Nodes = 24
	wcfg.QueriesPerNode = 3
	wcfg.FastRatio = 0.4
	return Fleet{
		Name:     fmt.Sprintf("dump-w%v-s%d", batchWindow, shards),
		Workload: wcfg,
		Cluster: ClusterConfig{
			Scheme:            SchemeLVF,
			HeartbeatInterval: 2 * time.Second,
			GossipFanout:      2,
			Shards:            shards,
			ChurnEvents:       3,
			ChurnOutage:       30 * time.Second,
			CoalesceWindow:    batchWindow,
		},
	}
}

// SweepFleets are the fleets the sweep runs: the kernel_fleet benchmark
// workload's configuration (81 nodes, SWIM, 400 shards, coalescing,
// churn; bench/sim.go) and the dump's four.
func SweepFleets() []Fleet {
	grid := workload.DefaultConfig()
	grid.GridRows, grid.GridCols, grid.Nodes = 9, 9, 81
	grid.LinkBandwidth = 1.25e6
	fleets := []Fleet{{Name: "kernel_fleet", Workload: grid, Cluster: ClusterConfig{
		Scheme:            SchemeLVF,
		HeartbeatInterval: 2 * time.Second,
		GossipFanout:      2,
		Shards:            400,
		ShardReplicas:     3,
		CoalesceWindow:    10 * time.Millisecond,
		ChurnEvents:       3,
		ChurnOutage:       10 * time.Second,
	}}}
	for _, shards := range []int{0, 96} {
		for _, window := range []time.Duration{0, 10 * time.Millisecond} {
			fleets = append(fleets, DumpFleet(window, shards))
		}
	}
	return fleets
}

// SweepReport is what one scenario seed's sweep found.
type SweepReport struct {
	Fleet string
	Seed  int64
	// Classes counts the decisions compared, over every permuted order,
	// by class.
	Classes [sweepClasses]int
	// Diffs are the decisions that differ, in order of permutation and
	// query id.
	Diffs []SweepDiff
	// Violations are the audit's findings in any order, prefixed with it.
	Violations []string
}

// SweepDiff is one decision that differs from the schedule order's.
type SweepDiff struct {
	Perm  uint64
	Query string
	Class SweepClass
	// Base and Got render the decision under the schedule order and
	// under Perm.
	Base, Got string
	// At is when the decision finished under the schedule order, from the
	// scenario epoch.
	At time.Duration
}

// sweepDecision is what the sweep compares of a decision.
type sweepDecision struct {
	status   core.Status
	finished time.Time
	// evidence is the held evidence fresh at the finish instant, by label.
	evidence map[string]core.Entry
	// inFlight: the decision expired with a request in flight.
	inFlight bool
}

// render is d in one line: status, finish instant from epoch, and the
// evidence, one label=value/source each; "absent" for no decision.
func (d sweepDecision) render(epoch time.Time) string {
	if d.status == 0 {
		return "absent"
	}
	s := fmt.Sprintf("%v at %v", d.status, d.finished.Sub(epoch))
	if d.inFlight {
		s += " waiting on a request in flight"
	}
	for _, l := range sortedMapKeys(d.evidence) {
		e := d.evidence[l]
		s += fmt.Sprintf(" %s=%v/%s", l, e.Value, e.Source)
	}
	return s
}

// decisionOf is q's sweepDecision, recorded as res.
func decisionOf(q *localQuery, res QueryResult) sweepDecision {
	d := sweepDecision{status: res.Status, finished: res.Finished, evidence: make(map[string]core.Entry)}
	for _, l := range q.engine.Labels() {
		if e, ok := q.engine.Entry(l); ok && !res.Finished.After(e.Expires) {
			d.evidence[l] = e
		}
	}
	for _, w := range res.Waiting {
		d.inFlight = d.inFlight || w.InFlight > 0
	}
	return d
}

// RunSweep runs fleet f on seed's scenario in the schedule order and in
// perms permuted ones (tie seeds 1 to perms), and classifies every
// decision of every permuted run against the schedule order's.
func RunSweep(f Fleet, seed int64, perms int) (SweepReport, error) {
	rep := SweepReport{Fleet: f.Name, Seed: seed}
	base, s, _, err := sweepRun(f, seed, 0, &rep, "")
	if err != nil {
		return rep, err
	}
	churn := f.Cluster.ChurnEvents > 0
	for p := uint64(1); p <= uint64(perms); p++ {
		got, _, _, err := sweepRun(f, seed, p, &rep, "")
		if err != nil {
			return rep, err
		}
		all := maps.Clone(base)
		maps.Copy(all, got)
		for _, id := range sortedMapKeys(all) {
			a, inBase := base[id]
			b, inGot := got[id]
			class := SweepUnexplained // a decision one order never made
			if inBase && inGot {
				class = classify(s.World, s.Sources, a, b, churn)
			}
			rep.Classes[class]++
			if class != SweepSame {
				rep.Diffs = append(rep.Diffs, SweepDiff{Perm: p, Query: id, Class: class,
					Base: a.render(s.Epoch), Got: b.render(s.Epoch), At: all[id].finished.Sub(s.Epoch)})
			}
		}
	}
	return rep, nil
}

// sweepRun runs f on seed's scenario under tie seed perm, audited, and
// returns every decision by query id; violations go to rep. With tap set,
// it also returns every delivery to node tap, one "instant from type"
// line each.
func sweepRun(f Fleet, seed int64, perm uint64, rep *SweepReport, tap string) (map[string]sweepDecision, *workload.Scenario, []string, error) {
	wcfg := f.Workload
	wcfg.Seed = seed
	s, err := workload.Generate(wcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := NewCluster(s, f.Cluster)
	if err != nil {
		return nil, nil, nil, err
	}
	c.Kernel.PermuteTies(perm)
	var trace []string
	if n := c.Nodes[tap]; n != nil {
		err := c.Network.SetHandler(tap, func(from string, size int64, payload any) {
			trace = append(trace, fmt.Sprintf("%v %s %T", c.Kernel.Now().Sub(s.Epoch), from, payload))
			n.handleMessage(from, size, payload)
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	audits := c.audit()
	for _, a := range audits {
		a.decisions = make(map[string]sweepDecision)
	}
	stop, err := c.issue()
	if err != nil {
		return nil, nil, nil, err
	}
	violations, err := c.runAudited(stop.Add(chaosQuiesce))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("athena: sweep: %w", err)
	}
	for _, v := range violations {
		rep.Violations = append(rep.Violations, fmt.Sprintf("order %d: %s", perm, v))
	}
	out := make(map[string]sweepDecision)
	for _, a := range audits {
		for id, d := range a.decisions {
			out[id] = d
		}
	}
	return out, s, trace, nil
}

// SweepTraces replays d's two runs — the schedule order and d.Perm — and
// returns the deliveries d's query's origin saw in each, up to the
// decision's finish under the schedule order, from the first instant whose
// deliveries differ (as a set: within an instant the two orders may
// differ by construction), and how many deliveries came before it.
func SweepTraces(f Fleet, seed int64, d SweepDiff) (common int, base, got []string, err error) {
	origin, _, _ := strings.Cut(d.Query, "/")
	var rep SweepReport
	var runs [2][]string
	for i, perm := range []uint64{0, d.Perm} {
		if _, _, runs[i], err = sweepRun(f, seed, perm, &rep, origin); err != nil {
			return 0, nil, nil, err
		}
		runs[i] = untilInstant(runs[i], d.At)
	}
	a, b := runs[0], runs[1]
	for len(a) > 0 && len(b) > 0 {
		na, nb := sameInstant(a), sameInstant(b)
		if !slices.Equal(a[:na], b[:nb]) {
			break
		}
		common += na
		a, b = a[na:], b[nb:]
	}
	return common, a, b, nil
}

// untilInstant cuts a delivery trace after instant at, sorting the lines
// of each instant.
func untilInstant(trace []string, at time.Duration) []string {
	for i := 0; i < len(trace); {
		n := sameInstant(trace[i:])
		if d, err := time.ParseDuration(instantOf(trace[i])); err == nil && d > at {
			return trace[:i]
		}
		slices.Sort(trace[i : i+n])
		i += n
	}
	return trace
}

// sameInstant is how many lines of trace share its first line's instant.
func sameInstant(trace []string) int {
	n := 1
	for n < len(trace) && instantOf(trace[n]) == instantOf(trace[0]) {
		n++
	}
	return n
}

func instantOf(line string) string {
	at, _, _ := strings.Cut(line, " ")
	return at
}

// classify sorts the difference between a decision's two outcomes, a
// under the schedule order and b under another, into its class. churn
// says the fleet has node outages.
func classify(world *workload.World, sources []object.Descriptor, a, b sweepDecision, churn bool) SweepClass {
	if a.status != b.status && (a.status == core.Expired || b.status == core.Expired) {
		expired := a
		if b.status == core.Expired {
			expired = b
		}
		if churn && expired.inFlight {
			return SweepExpiry
		}
		return SweepUnexplained
	}
	class := SweepSame
	if !a.finished.Equal(b.finished) || len(a.evidence) != len(b.evidence) {
		class = SweepInstant
	}
	for l, ea := range a.evidence {
		eb, ok := b.evidence[l]
		switch {
		case !ok:
			class = max(class, SweepInstant)
		case ea.Value != eb.Value:
			if !worldFlipped(world, sources, l, ea, eb) {
				return SweepUnexplained
			}
			class = max(class, SweepWorld)
		case ea.Source != eb.Source || ea.Annotator != eb.Annotator:
			class = max(class, SweepSource)
		case !ea.Expires.Equal(eb.Expires):
			class = max(class, SweepInstant)
		}
	}
	if a.status != b.status && class < SweepWorld {
		return SweepUnexplained // true against false on the same values
	}
	return class
}

// worldFlipped reports whether two readings of label, of other values,
// are each the world's value at its sample instant (its expiry less its
// source stream's validity), the two instants in different world epochs.
func worldFlipped(world *workload.World, sources []object.Descriptor, label string, a, b core.Entry) bool {
	sampled := func(e core.Entry) (time.Time, bool) {
		for _, d := range sources {
			if d.Source == e.Source {
				at := e.Expires.Add(-d.Validity)
				return at, world.LabelValue(label, at) == e.Value
			}
		}
		return time.Time{}, false
	}
	ta, oka := sampled(a)
	tb, okb := sampled(b)
	return oka && okb && !ta.Equal(tb)
}
