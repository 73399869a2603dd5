package athena

import "time"

// Data-plane batching (the coalescing layer): per-neighbor send queues
// merge same-destination ObjectRequests and ObjectData messages into
// RequestBatch/DataBatch frames, amortizing the per-frame overhead the
// wire charges for every message. A queue flushes when its byte budget
// fills or when the coalescing window expires, whichever comes first; a
// message whose query is close to its deadline flushes immediately
// (deadline-slack bound), and critical-namespace traffic bypasses the
// queue entirely so priority transmission is never delayed. Batching is
// off by default (CoalesceWindow == 0) and the off path is byte-identical
// to the pre-batching node — TestUnbatchedUnchangedByBatchingLayer pins
// that.
//
// A batch is strictly hop-local: members keep their own end-to-end
// addressing, the receiver unpacks and runs each through the ordinary
// handlers (interest fan-out, caching, forwarding), and forwarded members
// re-coalesce at the next hop. Retry state is untouched: origin timeout
// timers and interest retransmit timers are armed per member at enqueue
// time, so a batch member's loss is detected and recovered individually.

// coalesceSlackFactor scales the deadline-slack bound: a local query with
// less than this many coalescing windows of slack left skips the wait.
const coalesceSlackFactor = 8

// coalescer is the batching component's state: the window, the byte
// budget, one send queue per neighbor, and the queues the dispatch in
// progress has touched. It exists only when Config.CoalesceWindow > 0;
// toNeighbor is the one place that asks. Node.mu guards it, and it holds no
// *Node — the Node methods below read its fields.
type coalescer struct {
	window time.Duration
	budget int64 // queued bytes per neighbor that force a flush
	queues map[string]*sendQueue
	burst  []*sendQueue
}

// sendQueue is one neighbor's pending coalesced traffic. bytes counts the
// members' batched contribution (what the flush will ship), flushAt is
// the armed flush instant (zero when no flush is armed; it only ever
// moves earlier between flushes, so a fired timer can check staleness
// against it), and lastSend is when this link last shipped data-plane
// traffic — the Nagle-style idle test: a message on a quiet link goes out
// immediately, and only traffic arriving within a window of other traffic
// waits to coalesce.
type sendQueue struct {
	hop      string
	reqs     []*ObjectRequest
	datas    []*ObjectData
	bytes    int64
	flushAt  time.Time
	lastSend time.Time
	inBurst  bool
}

// enqueue coalesces a request or data message headed for the neighbor — the
// one way into a send queue, for both kinds — reporting whether it was
// queued (false = the caller transmits it natively). Critical-namespace
// objects bypass, even as background pushes: the queue must never sit
// between a critical object and the wire. So does a message for a quiet
// link, the Nagle-style immediate path: with nothing queued and no
// data-plane send to this neighbor within the last window, waiting would
// add latency with nothing to merge (the send is remembered, so a companion
// arriving within the window does coalesce behind it). Callers hold n.mu
// and have checked n.coalesce.
func (n *Node) enqueue(hop string, msg frame) bool {
	req, _ := msg.(*ObjectRequest)
	data, _ := msg.(*ObjectData)
	var object, queryID string
	switch {
	case req != nil:
		object, queryID = req.Object, req.QueryID
	case data != nil:
		object, queryID = data.Object, data.QueryID
	default:
		return false
	}
	if n.isCritical(object) {
		return false
	}
	c, now := n.coalesce, n.now()
	sq := c.queues[hop]
	if sq == nil {
		sq = &sendQueue{hop: hop}
		c.queues[hop] = sq
	}
	if len(sq.reqs)+len(sq.datas) == 0 && now.Sub(sq.lastSend) >= c.window {
		sq.lastSend = now
		return false
	}
	if req != nil {
		sq.reqs = append(sq.reqs, req)
		sq.bytes += batchedRequestBytes
	} else {
		sq.datas = append(sq.datas, data)
		sq.bytes += batchedDataHeaderBytes + data.Size
	}
	// flushBursts looks at the queue again when this dispatch ends.
	if !sq.inBurst {
		sq.inBurst = true
		c.burst = append(c.burst, sq)
	}
	// The wait is bounded by deadline slack: when the message serves a
	// query issued at this node with under coalesceSlackFactor windows left,
	// it collapses to zero — batching must never cost a query its deadline.
	// Non-local queries (forwarded members) get the full window; it is
	// milliseconds against deadlines of seconds.
	delay := c.window
	if q, ok := n.queries[queryID]; ok && q.engine.Deadline().Sub(now) < coalesceSlackFactor*c.window {
		delay = 0
	}
	n.settleQueue(sq, delay)
	return true
}

// flushBursts is the Nagle "push": a dispatch (one inbound frame, or one
// fetch-queue drain) that coalesced two or more messages for a neighbor
// has nothing more coming for them — the burst was synchronous — so the
// batch ships now instead of waiting out the window. A queue the dispatch
// left with a single member keeps its armed timer: a lone message may yet
// be joined by a companion from a later dispatch, and the window bounds
// its wait. This keeps the coalescing window out of the fan-out hot path
// entirely — end-to-end latency cost stays at most one window per hop,
// paid only by stragglers. Runs at the end of every top-level dispatch;
// callers hold n.mu.
func (n *Node) flushBursts() {
	c := n.coalesce
	if c == nil {
		return
	}
	for _, sq := range c.burst {
		sq.inBurst = false
		if len(sq.reqs)+len(sq.datas) >= 2 {
			n.flushQueue(sq)
		}
	}
	c.burst = c.burst[:0]
}

// settleQueue flushes a queue whose byte budget is full or whose newest
// member demands an immediate send, and otherwise (re-)arms the flush
// timer. Callers hold n.mu.
func (n *Node) settleQueue(sq *sendQueue, delay time.Duration) {
	if sq.bytes >= n.coalesce.budget || delay <= 0 {
		n.flushQueue(sq)
		return
	}
	due := n.now().Add(delay)
	if !sq.flushAt.IsZero() && !due.Before(sq.flushAt) {
		return // an earlier (or equal) flush is already armed
	}
	sq.flushAt = due
	n.timers.After(delay, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if sq.flushAt.IsZero() || n.now().Before(sq.flushAt) {
			return // already flushed, or re-armed for later members
		}
		n.flushQueue(sq)
	})
}

// flushQueue ships everything the queue holds: one RequestBatch and/or
// one DataBatch, except that a lone member of either kind ships in its
// native frame (a one-element batch would cost more wire than it saves).
// Coalesced traffic is always default-priority (critical bypasses the
// queue). Callers hold n.mu.
func (n *Node) flushQueue(sq *sendQueue) {
	reqs, datas := sq.reqs, sq.datas
	sq.reqs, sq.datas = nil, nil
	sq.bytes = 0
	sq.flushAt = time.Time{}
	sq.lastSend = n.now()

	switch {
	case len(reqs) == 1:
		n.ship(sq.hop, reqs[0], reqs[0].WireSize(), 0)
	case len(reqs) > 1:
		b := &RequestBatch{Requests: make([]ObjectRequest, len(reqs))}
		var native int64
		for i, r := range reqs {
			b.Requests[i] = *r
			native += r.WireSize()
		}
		size := b.WireSize()
		n.recordBatch(len(reqs), native, size)
		n.ship(sq.hop, b, size, 0)
	}

	switch {
	case len(datas) == 1:
		n.ship(sq.hop, datas[0], datas[0].WireSize(), 0)
	case len(datas) > 1:
		b := &DataBatch{Items: make([]ObjectData, len(datas))}
		var native int64
		for i, d := range datas {
			b.Items[i] = *d
			native += d.WireSize()
		}
		size := b.WireSize()
		n.recordBatch(len(datas), native, size)
		n.ship(sq.hop, b, size, 0)
	}
}

// recordBatch accounts one shipped batch of k members whose standalone
// frames would have cost native bytes against the batch's actual cost.
func (n *Node) recordBatch(k int, native, batched int64) {
	n.stats.BatchesSent++
	n.stats.BatchedMsgs += k
	n.stats.BatchBytesSaved += native - batched
	n.m.batchSize.Observe(float64(k))
	n.m.batchFramesSaved.Add(int64(k - 1))
	n.m.batchBytesSaved.Add(native - batched)
}
