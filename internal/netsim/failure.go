// Failure models for the emulated network (the post-disaster setting of
// Section VII): per-link probabilistic message loss, scheduled link
// up/down windows, and node churn. All failures are deterministic — each
// directed link draws losses from its own splitmix64 stream derived from
// the master failure seed and the link's endpoints, and outages are
// ordinary events on the lane that owns the affected state — so a
// failure-injected run is exactly repeatable from its seed, in either
// lane layout, at any worker count.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"athena/internal/simclock"
)

// linkStream derives a directed link's loss-stream seed from the master
// failure seed and the link's endpoints (FNV-1a over from NUL to).
func linkStream(seed uint64, from, to string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(from); i++ {
		h ^= uint64(from[i])
		h *= 1099511628211
	}
	h *= 1099511628211 // NUL separator
	for i := 0; i < len(to); i++ {
		h ^= uint64(to[i])
		h *= 1099511628211
	}
	return simclock.Mix64(seed ^ h)
}

// SeedFailures installs the master seed behind probabilistic message
// loss: every directed link gets an independent splitmix64 draw stream
// derived from this seed and its endpoints. It must be called before any
// SetLoss/SetLinkLoss takes effect; calling it again reseeds (restarting
// every stream).
func (n *Network) SeedFailures(seed int64) {
	n.failSeed = uint64(seed)
	n.failSeeded = true
	for key, l := range n.links {
		l.rng = linkStream(n.failSeed, key[0], key[1])
	}
}

// SetLinkLoss sets the probability that a message crossing the a<->b link
// (either direction) is lost in transit. Requires SeedFailures first when
// p > 0.
func (n *Network) SetLinkLoss(a, b string, p float64) error {
	la, oka := n.links[[2]string{a, b}]
	lb, okb := n.links[[2]string{b, a}]
	if !oka || !okb {
		return fmt.Errorf("%w: %s <-> %s", ErrNoLink, a, b)
	}
	if p > 0 && !n.failSeeded {
		return fmt.Errorf("netsim: SetLinkLoss(%s, %s): SeedFailures not called", a, b)
	}
	la.lossProb = p
	lb.lossProb = p
	return nil
}

// SetLoss sets the same loss probability on every link.
func (n *Network) SetLoss(p float64) error {
	if p > 0 && !n.failSeeded {
		return fmt.Errorf("netsim: SetLoss: SeedFailures not called")
	}
	for _, l := range n.links {
		l.lossProb = p
	}
	return nil
}

// SetLinkDown takes the a<->b link down (or back up). Messages sent or in
// flight while the link is down are lost (counted, no error), as on a
// severed radio link. Call it between runs; during a parallel run use
// ScheduleLinkOutage, which routes each direction's transition to the
// lane that owns it.
func (n *Network) SetLinkDown(a, b string, down bool) error {
	la, oka := n.links[[2]string{a, b}]
	lb, okb := n.links[[2]string{b, a}]
	if !oka || !okb {
		return fmt.Errorf("%w: %s <-> %s", ErrNoLink, a, b)
	}
	la.down = down
	lb.down = down
	return nil
}

// ScheduleLinkOutage schedules the a<->b link to go down at the given
// instant and come back up after the outage duration. Each direction's
// transitions run on its source node's lane — the lane that reads the
// flag on the transmit path — so the outage is layout- and worker-safe.
func (n *Network) ScheduleLinkOutage(a, b string, at time.Time, outage time.Duration) error {
	la, oka := n.links[[2]string{a, b}]
	lb, okb := n.links[[2]string{b, a}]
	if !oka || !okb {
		return fmt.Errorf("%w: %s <-> %s", ErrNoLink, a, b)
	}
	_ = n.AtNode(a, at, func() { la.down = true })
	_ = n.AtNode(a, at.Add(outage), func() { la.down = false })
	_ = n.AtNode(b, at, func() { lb.down = true })
	_ = n.AtNode(b, at.Add(outage), func() { lb.down = false })
	return nil
}

// SetNodeDown takes a node out of the network (or brings it back): while
// down it neither sends nor receives — messages addressed to or from it
// are lost. Churn hooks installed with OnChurn fire on every transition.
// During a parallel run this must execute on the node's own lane (use
// ScheduleNodeOutage/ScheduleChurn, which arrange that); between runs it
// may be called directly.
func (n *Network) SetNodeDown(id string, down bool) error {
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if nd.down == down {
		return nil
	}
	nd.down = down
	for _, fn := range n.churnHooks {
		fn(id, !down)
	}
	return nil
}

// NodeDown reports whether a node is currently down.
func (n *Network) NodeDown(id string) bool {
	nd, ok := n.nodes[id]
	return ok && nd.down
}

// ScheduleNodeOutage schedules a node to churn out at the given instant
// and rejoin after the outage duration. The transitions run on the
// node's own lane.
func (n *Network) ScheduleNodeOutage(id string, at time.Time, outage time.Duration) error {
	if _, ok := n.nodes[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	_ = n.AtNode(id, at, func() { _ = n.SetNodeDown(id, true) })
	_ = n.AtNode(id, at.Add(outage), func() { _ = n.SetNodeDown(id, false) })
	return nil
}

// ScheduleChurn schedules a deterministic churn pattern: events node
// outages, victims and start instants drawn from the given seed. Each
// event takes one node down at a uniform instant in [start, start+window)
// for the outage duration. A node is never scheduled for two overlapping
// outages, and at most half the nodes ever churn (the rest keep the
// network connected). Returns the victim ids in schedule order.
func (n *Network) ScheduleChurn(seed int64, events int, start time.Time, window, outage time.Duration) []string {
	if events <= 0 || window <= 0 {
		return nil
	}
	ids := n.Nodes() // sorted
	if len(ids) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	busyUntil := make(map[string]time.Time)
	maxChurning := (len(ids) + 1) / 2
	churned := make(map[string]bool)
	victims := make([]string, 0, events)
	for i := 0; i < events; i++ {
		at := start.Add(time.Duration(rng.Int63n(int64(window))))
		id := ids[rng.Intn(len(ids))]
		if !churned[id] && len(churned) >= maxChurning {
			continue
		}
		if until, ok := busyUntil[id]; ok && at.Before(until) {
			continue
		}
		churned[id] = true
		busyUntil[id] = at.Add(outage)
		_ = n.ScheduleNodeOutage(id, at, outage)
		victims = append(victims, id)
	}
	return victims
}

// OnChurn registers a hook invoked on every node churn transition with the
// node id and whether it is now up. Hooks run on the churning node's
// lane, so a hook must only touch that node's state.
func (n *Network) OnChurn(fn func(id string, up bool)) {
	n.churnHooks = append(n.churnHooks, fn)
}

// lose decides whether a message on link l is lost to injected failures
// at the end of serialization: the link is down, its source has churned
// out, or the link's seeded loss draw fires. It runs on the source lane
// and reads only source-side state; destination churn is judged at
// arrival on the destination lane (see deliver). Draws come from the
// link's own stream in the link's own serialization order, so they are
// independent of how events on other links interleave.
func (n *Network) lose(l *link) bool {
	if l.down || l.src.down {
		return true
	}
	if l.lossProb > 0 && n.failSeeded && simclock.Float64From(simclock.RandNext(&l.rng)) < l.lossProb {
		return true
	}
	return false
}
