package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
)

// MembershipRow is one fleet-size × protocol cell of the A8 table.
type MembershipRow struct {
	// Label names the configuration (e.g. "n=128 gossip").
	Label string
	// Nodes is the fleet size.
	Nodes int
	// CtlMsgs and CtlBytes are the steady-state control-plane cost per
	// node per heartbeat interval (the quantity that is O(n) per node
	// under flooding and ~flat under peer-sampled gossip).
	CtlMsgs  float64
	CtlBytes float64
	// Detection is how long after a crash the last live replica evicted
	// the dead node (capped at membershipDetectCap).
	Detection time.Duration
	// FalseDrops is the fraction of (live observer, live source) pairs
	// missing from a directory replica at the end of the run — the
	// false-eviction rate after the recovery tail.
	FalseDrops float64
}

// The A8 rig's fixed parameters. The 2-second interval keeps the flood
// protocol's O(n²) per-interval message count affordable at n=512 while
// preserving the per-node scaling contrast the experiment exists to show.
const (
	membershipInterval  = 2 * time.Second
	membershipSettle    = 10 * membershipInterval
	membershipWindow    = 10 * membershipInterval
	membershipDetectCap = 120 * membershipInterval
	membershipTail      = 5 * membershipInterval
)

// membershipEpoch anchors the simulated clock; runs are deterministic in
// the seed, so any fixed instant works.
var membershipEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// allTrue is the trivial ground truth for membership-only fleets: the rig
// never issues queries, so label values are irrelevant.
type allTrue struct{}

func (allTrue) LabelValue(string, time.Time) bool { return true }

// MembershipOpts configures one A8 rig run beyond the fleet size.
type MembershipOpts struct {
	// Fanout 0 runs the flooded-heartbeat protocol; > 0 runs SWIM gossip
	// with that probe fan-out.
	Fanout int
	// Seed drives topology and gossip sampling.
	Seed int64
	// Shards > 0 enables the sharded directory (requires Fanout > 0),
	// each shard on the node's default three replicas, mirroring the A9
	// configuration on a real simulation.
	Shards int
}

// RunMembership measures the membership control plane at fleet size n on a
// seeded random connected topology: steady-state control messages and
// bytes per node per heartbeat interval, crash-detection latency, and the
// false-eviction rate. fanout 0 runs the flooded-heartbeat protocol;
// fanout > 0 runs SWIM gossip with that probe fan-out. Deterministic in
// the seed. Exported so BenchmarkMembershipControlPlane can reuse the rig.
func RunMembership(n, fanout int, seed int64) (MembershipRow, error) {
	return RunMembershipOpts(n, MembershipOpts{Fanout: fanout, Seed: seed})
}

// RunMembershipOpts is RunMembership with sharding control.
func RunMembershipOpts(n int, o MembershipOpts) (MembershipRow, error) {
	fanout, seed := o.Fanout, o.Seed
	net := netsim.NewAt(membershipEpoch)
	rng := rand.New(rand.NewSource(seed))
	link := netsim.LinkConfig{Bandwidth: 1 << 20, Latency: time.Millisecond}
	if err := netsim.BuildRandomConnected(net, n, n/2, link, rng); err != nil {
		return MembershipRow{}, err
	}

	descs := make([]object.Descriptor, n)
	ids := make([]string, n)
	for i := range descs {
		ids[i] = fmt.Sprintf("n%d", i)
		descs[i] = object.Descriptor{
			Name: names.MustParse("/src/" + ids[i]), Size: 1000, Source: ids[i],
			Labels: []string{"up"}, Validity: time.Minute, ProbTrue: 0.8,
		}
	}
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"up": {Cost: 1000, ProbTrue: 0.8, Validity: time.Minute}}
	nodes := make(map[string]*athena.Node, n)
	for i, id := range ids {
		desc := descs[i]
		node, err := athena.New(athena.Config{
			ID:                id,
			Transport:         transport.NewSim(net, id),
			Router:            net,
			Timers:            athena.LaneTimers{Lane: net.LaneOf(id)},
			Scheme:            athena.SchemeLVF,
			Directory:         athena.NewDirectory(descs),
			Meta:              meta,
			World:             allTrue{},
			Authority:         auth,
			Signer:            auth.Register(id, []byte("k-"+id)),
			Policy:            trust.TrustAll(),
			Descriptor:        &desc,
			CacheBytes:        1 << 20,
			HeartbeatInterval: membershipInterval,
			GossipFanout:      fanout,
			GossipSeed:        seed,
			Shards:            o.Shards,
		})
		if err != nil {
			return MembershipRow{}, err
		}
		nodes[id] = node
	}

	runUntil := func(d time.Duration) error {
		return net.RunUntil(membershipEpoch.Add(d), 0)
	}
	if err := runUntil(membershipSettle); err != nil {
		return MembershipRow{}, err
	}

	// Steady-state measurement window: replicas start converged, so every
	// control byte in here is pure protocol upkeep.
	type ctl struct {
		msgs  int
		bytes int64
	}
	before := make(map[string]ctl, n)
	for id, node := range nodes {
		st := node.Stats()
		before[id] = ctl{st.ControlMsgs, st.ControlBytes}
	}
	if err := runUntil(membershipSettle + membershipWindow); err != nil {
		return MembershipRow{}, err
	}
	var msgs int
	var bytes int64
	for id, node := range nodes {
		st := node.Stats()
		msgs += st.ControlMsgs - before[id].msgs
		bytes += st.ControlBytes - before[id].bytes
	}
	intervals := float64(membershipWindow / membershipInterval)
	row := MembershipRow{
		Nodes:    n,
		CtlMsgs:  float64(msgs) / float64(n) / intervals,
		CtlBytes: float64(bytes) / float64(n) / intervals,
	}

	// Crash a leaf. The simulator's routes are not failure-aware, so a
	// dead transit node legitimately blackholes everything behind it; a
	// degree-1 node carries no transit traffic and isolates the failure
	// detector itself. Random connected graphs at this density always
	// have leaves, but fall back to the last node just in case.
	dead := ids[n-1]
	for _, id := range ids {
		if len(net.Neighbors(id)) == 1 {
			dead = id
			break
		}
	}
	if err := net.SetNodeDown(dead, true); err != nil {
		return MembershipRow{}, err
	}
	crashAt := membershipSettle + membershipWindow
	detect := membershipDetectCap
	for at := crashAt + membershipInterval; at <= crashAt+membershipDetectCap; at += membershipInterval {
		if err := runUntil(at); err != nil {
			return MembershipRow{}, err
		}
		all := true
		for id, node := range nodes {
			if id != dead && node.Directory().Has(dead) {
				all = false
				break
			}
		}
		if all {
			detect = at - crashAt
			break
		}
	}
	row.Detection = detect

	// Recovery tail (refutations re-admit any falsely accused live node),
	// then audit every live replica for missing live sources.
	if err := runUntil(crashAt + detect + membershipTail); err != nil {
		return MembershipRow{}, err
	}
	var missing, pairs int
	for id, node := range nodes {
		if id == dead {
			continue
		}
		for _, src := range ids {
			if src == dead || src == id {
				continue
			}
			pairs++
			if !node.Directory().Has(src) {
				missing++
			}
		}
	}
	if pairs > 0 {
		row.FalseDrops = float64(missing) / float64(pairs)
	}
	return row, nil
}

// AblationMembership (A8) sweeps fleet size × membership protocol: the
// flooded-heartbeat control plane costs O(n) messages per node per
// interval while SWIM gossip holds per-node cost ~flat (fanout probes plus
// λ·log n piggybacked deltas), at the price of a longer — but bounded and
// false-positive-resistant — detection window. A nil sizes slice runs the
// full {8, 32, 128, 512} sweep plus an n=2048 gossip+sharding row that is
// simulated for real (flooding at that size would cost O(n²) messages per
// interval for no new information, so only the scalable configuration gets
// the scale row).
func AblationMembership(cfg Config, sizes []int) ([]MembershipRow, error) {
	scaleRow := len(sizes) == 0
	if len(sizes) == 0 {
		sizes = []int{8, 32, 128, 512}
	}
	var rows []MembershipRow
	for _, n := range sizes {
		for _, fanout := range []int{0, 2} {
			row, err := RunMembership(n, fanout, cfg.BaseSeed)
			if err != nil {
				return nil, err
			}
			mode := "flood"
			if fanout > 0 {
				mode = "gossip"
			}
			row.Label = fmt.Sprintf("n=%d %s", n, mode)
			rows = append(rows, row)
		}
	}
	if scaleRow {
		const n = 2048
		row, err := RunMembershipOpts(n, MembershipOpts{
			Fanout: 2,
			Seed:   cfg.BaseSeed,
			Shards: 4 * n,
		})
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("n=%d gossip+shard", n)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderMembership prints the A8 table.
func RenderMembership(rows []MembershipRow) string {
	var b strings.Builder
	b.WriteString("Ablation A8: membership control plane — flood vs SWIM gossip\n")
	fmt.Fprintf(&b, "%-16s%14s%16s%12s%12s\n", "config", "msgs/node/iv", "bytes/node/iv", "detect(s)", "false-drop")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s%14.1f%16.0f%12.1f%12.4f\n",
			r.Label, r.CtlMsgs, r.CtlBytes, r.Detection.Seconds(), r.FalseDrops)
	}
	return b.String()
}
