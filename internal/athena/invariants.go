package athena

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Quiescent checks the fleet invariants that must hold once a node set has
// gone quiet — every query recorded, and the fleet run on past its last
// request by more than interestTTL and a retry window, so that what a
// request left in an interest table has lapsed — and returns one line per
// violation, "node: what", in node id order; nil means none. The checks:
//
//   - no query is live: n.queries and n.live are both empty;
//   - no routed shard lookup is pending with a waiter that is still live;
//   - no interest-table waiter or pending mark outlives the instant of the
//     check;
//   - no result is both expired and resolved: each query is recorded once,
//     an expired one after its deadline, and Stats.Expired counts exactly
//     the expired results.
//
// It reads each node under its lock and changes nothing, so a test or a
// harness may call it at any checkpoint; only the first and third checks
// need quiescence.
func Quiescent(nodes map[string]*Node) []string {
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []string
	for _, id := range ids {
		for _, v := range nodes[id].quiescenceViolations() {
			out = append(out, id+": "+v)
		}
	}
	return out
}

// quiescenceViolations is Quiescent for one node.
func (n *Node) quiescenceViolations() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	if len(n.queries) > 0 || len(n.live) > 0 {
		live := make([]string, 0, len(n.live))
		for _, q := range n.live {
			live = append(live, q.engine.ID())
		}
		out = append(out, fmt.Sprintf("%d queries unrecorded, %d live: %s", len(n.queries), len(n.live), strings.Join(live, " ")))
	}
	if n.shard != nil {
		for _, l := range n.shard.router.pendingWith(func(id string) bool { return n.queries[id] != nil }) {
			out = append(out, "shard lookup for "+l+" pending with a live waiter")
		}
	}
	now := n.now()
	objs := make([]string, 0, len(n.interest.reqs))
	for obj := range n.interest.reqs {
		objs = append(objs, obj)
	}
	sort.Strings(objs)
	for _, obj := range objs {
		r := n.interest.reqs[obj]
		if slices.ContainsFunc(r.waiters, func(w interestEntry) bool { return w.expires.After(now) }) {
			out = append(out, "interest in "+obj+": a waiter not drained")
		}
		if r.gen != 0 && r.mark.at.After(now) {
			out = append(out, "interest in "+obj+": a pending mark not drained")
		}
	}
	recorded := make(map[string]int, len(n.results))
	expired := 0
	for _, r := range n.results {
		recorded[r.QueryID]++
		if recorded[r.QueryID] == 2 {
			out = append(out, "query "+r.QueryID+" recorded twice")
		}
		if !r.Status.Resolved() {
			expired++
			if !r.Finished.After(r.Deadline) {
				out = append(out, "query "+r.QueryID+" expired before its deadline")
			}
		}
	}
	if expired != n.stats.Expired {
		out = append(out, fmt.Sprintf("%d results expired, Stats.Expired %d", expired, n.stats.Expired))
	}
	return out
}

// pendingWith lists, sorted, the labels asked of a pending lookup that has
// a waiter live reports true for.
func (sr *ShardRouter) pendingWith(live func(id string) bool) []string {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var out []string
	for _, p := range sr.pending {
		if slices.ContainsFunc(p.waiting, live) {
			out = append(out, p.asked...)
		}
	}
	sort.Strings(out)
	return out
}
