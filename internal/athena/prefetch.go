package athena

import (
	"slices"
	"time"

	"athena/internal/boolexpr"
)

// prefetcher is the prefetch component (Section VI-A): the background
// pushes this node owes to queries others announced. It exists unless
// Config.DisablePrefetch; a node without one neither pushes nor announces
// its own queries (it still relays: that dedupe is the core's,
// Node.seenAnnounce). Node.mu guards it, and it holds no *Node — the Node
// methods below read its fields.
type prefetcher struct {
	queue          []prefetchTask
	pushedVersions map[string]uint64 // origin|object -> last pushed version
	// nextPush paces the queue: no push before it, and while it lies ahead
	// a drain is armed for it. Only pushes wait on it; a foreground request
	// issued inside the wait drains at once.
	nextPush time.Time
}

type prefetchTask struct {
	origin  string
	queryID string
}

// considerPush queues a push of this node's object toward the origin of an
// announced query, but only when the node is the cheapest source for a
// label the query needs — unselective pushing would flood the network with
// redundant evidence. Callers hold n.mu and have checked n.prefetch.
func (n *Node) considerPush(a *QueryAnnounce) {
	if n.desc == nil || a.Origin == n.id {
		return
	}
	expr, err := boolexpr.Parse(a.Expr)
	if err != nil {
		return
	}
	needed := boolexpr.Labels(expr)
	for _, l := range n.desc.Labels {
		if slices.Contains(needed, l) && n.dir.SourceForLabel(l, nil) == n.id {
			p := n.prefetch
			p.queue = append(p.queue, prefetchTask{origin: a.Origin, queryID: a.QueryID})
			if !n.now().Before(p.nextPush) {
				n.kick()
			}
			return
		}
	}
}

// pushNext serves one prefetch task, unless the last push was under
// prefetchDelay ago, and arms a drain for the next if more are queued.
// Callers hold n.mu and have checked n.prefetch.
func (n *Node) pushNext() {
	p, now := n.prefetch, n.now()
	if len(p.queue) == 0 || now.Before(p.nextPush) {
		return
	}
	task := p.queue[0]
	p.queue = p.queue[1:]
	obj := n.sample(now)
	// Don't re-push a version this origin already received.
	if key := task.origin + "|" + obj.ID.Name.String(); p.pushedVersions[key] != obj.ID.Version {
		p.pushedVersions[key] = obj.ID.Version
		n.stats.PrefetchPushes++
		n.sendTo(task.origin, dataMsg(obj, task.origin, task.queryID, true))
	}
	if len(p.queue) > 0 {
		p.nextPush = now.Add(prefetchDelay)
		n.timers.After(prefetchDelay, n.drain)
	}
}
