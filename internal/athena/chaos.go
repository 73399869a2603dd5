package athena

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/netsim"
	"athena/internal/trust"
	"athena/internal/workload"
)

// A chaos run draws a schedule of netsim faults from a seed, runs a fleet
// under it, and checks the fleet invariants as it goes: at fixed
// virtual-time checkpoints, as the decisions, label answers and forwards
// they are about happen, and, a minute past the run, at quiescence
// (Quiescent). A violation is reported with the seed and the shortest
// prefix of the schedule that still shows one (ShrinkChaos), which replays
// exactly: the run is a pure function of the fleet, the seed and the
// prefix length.

// FaultKind is the class of one injected fault.
type FaultKind uint8

// The fault classes of netsim/failure.go a schedule draws from.
const (
	// FaultLoss drops every frame on every link with probability Loss.
	FaultLoss FaultKind = iota
	// FaultLink takes the link between Nodes[0] and Nodes[1] down.
	FaultLink
	// FaultNode takes Nodes[0] down for 1–40 s: on a membership fleet
	// long enough, at the top of the range, to be evicted, and the node
	// rejoins when it comes back (the cluster's churn hook calls Rejoin).
	FaultNode
	// FaultPartition takes down every link between Nodes and the rest.
	FaultPartition
)

var faultNames = [...]string{"loss", "link", "node", "partition"}

func (k FaultKind) String() string { return faultNames[k] }

// Fault is one scheduled fault: a window from At to At+For, measured from
// the scenario epoch.
type Fault struct {
	Kind    FaultKind
	At, For time.Duration
	// Loss is FaultLoss's drop probability.
	Loss float64
	// Nodes are the link's two ends, the node, or the partition's side.
	Nodes []string
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s at %v for %v", f.Kind, f.At, f.For)
	if f.Kind == FaultLoss {
		return s + fmt.Sprintf(" p=%.2f", f.Loss)
	}
	return s + " " + strings.Join(f.Nodes, ",")
}

// Schedule is a fault schedule, in order of onset.
type Schedule []Fault

// chaosFaults is how many faults a schedule holds.
const chaosFaults = 12

// DrawSchedule draws count faults with onsets uniform over [0, horizon)
// on net's nodes and links, from the seed alone, sorted by onset (ties
// keep draw order).
func DrawSchedule(seed int64, net *netsim.Network, horizon time.Duration, count int) Schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x6a05))
	nodes := net.Nodes()
	var links [][2]string
	for _, a := range nodes {
		for _, b := range net.Neighbors(a) {
			if a < b {
				links = append(links, [2]string{a, b})
			}
		}
	}
	span := func(lo, hi time.Duration) time.Duration { return lo + time.Duration(rng.Int63n(int64(hi-lo))) }
	s := make(Schedule, 0, count)
	for i := 0; i < count; i++ {
		f := Fault{Kind: FaultKind(rng.Intn(len(faultNames))), At: time.Duration(rng.Int63n(int64(horizon)))}
		switch f.Kind {
		case FaultLoss:
			f.For, f.Loss = span(2*time.Second, 15*time.Second), 0.05+0.25*rng.Float64()
		case FaultLink:
			l := links[rng.Intn(len(links))]
			f.For, f.Nodes = span(time.Second, 10*time.Second), []string{l[0], l[1]}
		case FaultNode:
			f.For, f.Nodes = span(time.Second, 40*time.Second), []string{nodes[rng.Intn(len(nodes))]}
		case FaultPartition:
			side := slices.Clone(nodes)
			rng.Shuffle(len(side), func(i, j int) { side[i], side[j] = side[j], side[i] })
			side = side[:1+rng.Intn(len(side)/2)]
			sort.Strings(side)
			f.For, f.Nodes = span(5*time.Second, 20*time.Second), side
		}
		s = append(s, f)
	}
	slices.SortStableFunc(s, func(a, b Fault) int { return cmp.Compare(a.At, b.At) })
	return s
}

// install schedules every fault on net.
func (s Schedule) install(net *netsim.Network, epoch time.Time, seed int64) error {
	net.SeedFailures(seed ^ 0x1055)
	for _, f := range s {
		at := epoch.Add(f.At)
		var err error
		switch f.Kind {
		case FaultLoss:
			err = net.ScheduleLoss(f.Loss, at, f.For)
		case FaultLink:
			err = net.ScheduleLinkOutage(f.Nodes[0], f.Nodes[1], at, f.For)
		case FaultNode:
			err = net.ScheduleNodeOutage(f.Nodes[0], at, f.For)
		case FaultPartition:
			for _, a := range f.Nodes {
				for _, b := range net.Neighbors(a) {
					if _, in := slices.BinarySearch(f.Nodes, b); !in && err == nil {
						err = net.ScheduleLinkOutage(a, b, at, f.For)
					}
				}
			}
		}
		if err != nil {
			return fmt.Errorf("athena: chaos: %v: %w", f, err)
		}
	}
	return nil
}

// Fleet is a fleet configuration a chaos schedule or the order-independence
// sweep runs on.
type Fleet struct {
	Name string
	// Workload generates the scenario; its Seed is the run's.
	Workload workload.Config
	Cluster  ClusterConfig
}

// ChaosFleets are the fleets a chaos seed runs on: the Sec. VII fleet
// under lvfl and under cmp, the kernel_fleet configuration (SWIM, a
// sharded directory, coalescing) and a partial-trust one (A1's
// half-trusted policy). No golden, dump or benchmark workload runs the
// last.
func ChaosFleets() []Fleet {
	sec7 := workload.DefaultConfig()
	grid := workload.DefaultConfig()
	grid.GridRows, grid.GridCols, grid.Nodes = 9, 9, 81
	grid.LinkBandwidth = 1.25e6
	return []Fleet{
		{Name: "sec7-lvfl", Workload: sec7, Cluster: ClusterConfig{Scheme: SchemeLVFL}},
		{Name: "sec7-cmp", Workload: sec7, Cluster: ClusterConfig{Scheme: SchemeCMP}},
		{Name: "kernel", Workload: grid, Cluster: ClusterConfig{
			Scheme:            SchemeLVF,
			HeartbeatInterval: 2 * time.Second,
			GossipFanout:      2,
			Shards:            96,
			ShardReplicas:     3,
			CoalesceWindow:    10 * time.Millisecond,
		}},
		{Name: "partial-trust", Workload: sec7, Cluster: ClusterConfig{Scheme: SchemeLVFL, TrustFraction: 0.5}},
	}
}

// ChaosReport is what one chaos run found.
type ChaosReport struct {
	Fleet string
	Seed  int64
	// Schedule is the schedule run: the drawn one, or a prefix of it.
	Schedule Schedule
	// Issued, Resolved and Expired count the fleet's decisions; Lost the
	// frames the faults dropped.
	Issued, Resolved, Expired int
	Lost                      int64
	// Violations are "instant node: what" lines, in the order found.
	Violations []string
}

// chaosCheckpoint is the virtual-time interval between checkpoints, and
// chaosQuiesce how long past its stop a run goes on before the quiescence
// check: Quiescent's usual minute. A request lives no longer than its
// query, so what a fleet still holds a minute past its last deadline is a
// leak.
const (
	chaosCheckpoint = 5 * time.Second
	chaosQuiesce    = time.Minute
)

// RunChaos runs the fleet on seed's scenario under the first faults of
// seed's schedule (all of them when faults is negative).
func RunChaos(f Fleet, seed int64, faults int) (ChaosReport, error) {
	wcfg := f.Workload
	wcfg.Seed = seed
	s, err := workload.Generate(wcfg)
	if err != nil {
		return ChaosReport{}, err
	}
	c, err := NewCluster(s, f.Cluster)
	if err != nil {
		return ChaosReport{}, err
	}
	// Onsets fall in the first half of a query's life, where the fleet's
	// traffic is.
	horizon := issueStagger + s.Queries[0].Deadline/2
	sched := DrawSchedule(seed, c.Network, horizon, chaosFaults)
	if faults >= 0 && faults < len(sched) {
		sched = sched[:faults]
	}
	rep := ChaosReport{Fleet: f.Name, Seed: seed, Schedule: sched}
	if err := sched.install(c.Network, s.Epoch, seed); err != nil {
		return rep, err
	}
	c.audit()
	stop, err := c.issue()
	if err != nil {
		return rep, err
	}
	if rep.Violations, err = c.runAudited(stop.Add(chaosQuiesce)); err != nil {
		return rep, fmt.Errorf("athena: chaos: %w", err)
	}
	out := c.outcome()
	rep.Issued, rep.Resolved, rep.Expired = out.QueriesIssued, out.QueriesResolved, out.Node.Expired
	rep.Lost = c.Network.Stats().MessagesLost
	return rep, nil
}

// ShrinkChaos returns the report of the shortest prefix of a violating
// run's schedule that still violates, found by bisecting on its length.
func ShrinkChaos(f Fleet, full ChaosReport) (ChaosReport, error) {
	lo, hi, best := 0, len(full.Schedule), full
	for lo < hi {
		mid := (lo + hi) / 2
		rep, err := RunChaos(f, full.Seed, mid)
		if err != nil {
			return full, err
		}
		if len(rep.Violations) > 0 {
			hi, best = mid, rep
		} else {
			lo = mid + 1
		}
	}
	return best, nil
}

// ReplayCommand is the one line that re-runs a report's run.
func (r ChaosReport) ReplayCommand() string {
	return fmt.Sprintf("go run ./cmd/athena-sim -fig chaos -seed %d -reps 1 -faults %d", r.Seed, len(r.Schedule))
}

// audit gives every node of c an auditor and returns them, by node.
func (c *Cluster) audit() map[string]*chaosAudit {
	out := make(map[string]*chaosAudit, len(c.Nodes))
	for id, n := range c.Nodes {
		n.audit = &chaosAudit{}
		out[id] = n.audit
	}
	return out
}

// runAudited runs c's audited fleet to end, checking every node at each
// checkpoint from the scenario epoch on, then checks quiescence, and
// returns the violations found, "instant node: what" lines in order.
func (c *Cluster) runAudited(end time.Time) ([]string, error) {
	epoch := c.Scenario.Epoch
	ids := sortedMapKeys(c.Nodes)
	var out []string
	for t := epoch; t.Before(end); {
		t = t.Add(chaosCheckpoint)
		if t.After(end) {
			t = end
		}
		if err := c.Network.RunUntil(t, maxEvents); err != nil {
			return out, err
		}
		at := fmt.Sprintf("t=%v ", t.Sub(epoch))
		for _, id := range ids {
			for _, v := range c.Nodes[id].chaosViolations() {
				out = append(out, at+id+": "+v)
			}
		}
	}
	for _, v := range Quiescent(c.Nodes) {
		out = append(out, "quiescent "+v)
	}
	return out, nil
}

// chaosAudit collects the violations a node's hooks see as they happen,
// and what a checkpoint compares with the last one. Each node has its own,
// touched only under its n.mu.
type chaosAudit struct {
	violations []string
	// seqs is the node's directory seq vector at the last checkpoint.
	seqs map[string]uint64
	// decisions, when not nil, keeps every recorded decision by query id
	// (the order-independence sweep).
	decisions map[string]sweepDecision
}

// recorded checks a resolved query's evidence: a term whose every literal
// held, fresh at the resolution instant, for ResolvedTrue; a failing
// literal, fresh then, in every term for ResolvedFalse.
func (a *chaosAudit) recorded(q *localQuery, res QueryResult) {
	if a.decisions != nil {
		a.decisions[res.QueryID] = decisionOf(q, res)
	}
	if !res.Status.Resolved() {
		return
	}
	// holds reports whether l's evidence was fresh at resolution, and
	// whether it made l true.
	holds := func(l boolexpr.Literal) (fresh, met bool) {
		e, ok := q.engine.Entry(l.Label)
		if !ok || res.Finished.After(e.Expires) {
			return false, false
		}
		return true, e.Value != l.Negated
	}
	decided := res.Status == core.ResolvedFalse
	for _, term := range q.engine.Expr().Terms {
		viable, ruledOut := true, false
		for _, l := range term.Literals {
			fresh, met := holds(l)
			viable = viable && fresh && met
			ruledOut = ruledOut || fresh && !met
		}
		if res.Status == core.ResolvedTrue && viable {
			decided = true
		}
		if res.Status == core.ResolvedFalse && !ruledOut {
			decided = false
		}
	}
	if !decided {
		a.violations = append(a.violations, fmt.Sprintf("query %s %v at %v on evidence past its validity", res.QueryID, res.Status, res.Finished.Format(time.RFC3339Nano)))
	}
}

// served checks a record the label cache answers with.
func (a *chaosAudit) served(rec *trust.Label, now time.Time) {
	if !rec.FreshAt(now) {
		a.violations = append(a.violations, fmt.Sprintf("label %s by %s served from the cache past its expiry", rec.Name, rec.Annotator))
	}
}

// forwarded checks an upstream forward of obj.
func (a *chaosAudit) forwarded(it *InterestTable, obj string, now time.Time) {
	if !it.pending(obj, now) {
		a.violations = append(a.violations, "request for "+obj+" forwarded with no live mark")
	}
}

// chaosViolations checks the node at a checkpoint and returns what its
// audit saw since the last one, then what the checkpoint finds:
//
//   - every record in the label cache verifies under its annotator's
//     current key (unless a replacement empties the cache on its next
//     read);
//   - the directory's seq vector has not gone back, or lost a source;
//   - under SWIM, every outstanding probe's number lies in
//     (timedOut, probeSeq], and no suspect is older than the longest
//     suspicion window, (1+lhmMax)·suspectTO, plus a period.
//
// It changes nothing a run reads.
func (n *Node) chaosViolations() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	a := n.audit
	out := a.violations
	a.violations = nil
	now := n.now()
	if n.labelKeys == n.authority.Replacements() {
		for _, rec := range n.labels.All() {
			if n.authority.Verify(rec) != nil {
				out = append(out, fmt.Sprintf("cached label %s by %s fails under the current key", rec.Name, rec.Annotator))
			}
		}
	}
	seqs := n.dir.SeqVector(nil)
	for _, src := range sortedMapKeys(a.seqs) {
		if seq, ok := seqs[src]; !ok || seq < a.seqs[src] {
			out = append(out, fmt.Sprintf("directory seq of %s went back: %d to %d", src, a.seqs[src], seq))
		}
	}
	a.seqs = seqs
	if n.member != nil && n.member.swim != nil {
		sw := n.member.swim
		for _, seq := range sortedMapKeys(sw.probes) {
			if seq <= sw.timedOut || seq > sw.probeSeq {
				out = append(out, fmt.Sprintf("probe %d outstanding outside (%d, %d]", seq, sw.timedOut, sw.probeSeq))
			}
		}
		window := time.Duration(1+lhmMax)*sw.suspectTO + n.member.interval
		for _, target := range sortedKeys(sw.suspects) {
			if age := now.Sub(sw.suspects[target]); age > window {
				out = append(out, fmt.Sprintf("%s suspect for %v, over %v", target, age, window))
			}
		}
	}
	return out
}

// sortedMapKeys returns a map's keys, sorted.
func sortedMapKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
