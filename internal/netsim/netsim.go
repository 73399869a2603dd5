// Package netsim is the network emulator substrate standing in for the
// EMANE-Shim emulator the paper used (Section VII). It models a static
// topology of duplex links, each with a bandwidth, propagation latency,
// and a FIFO transmission queue (store-and-forward), on top of the
// deterministic discrete-event machinery in internal/simclock. Per-link
// and network-wide byte accounting provides the bandwidth measurements
// behind Figure 3.
//
// A Network runs on the one lane of a simclock.Scheduler: every node's
// work — serialization on its outgoing links, timer callbacks, message
// deliveries, handler invocations — is an event on the kernel's one
// queue, so a run is in global (time, schedule sequence) order and a pure
// function of the seed.
package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"

	"athena/internal/simclock"
)

// Handler receives messages delivered to a node.
type Handler func(from string, size int64, payload any)

// Stats aggregates network accounting.
type Stats struct {
	// MessagesSent counts Send calls that were accepted.
	MessagesSent int64
	// MessagesDelivered counts messages handed to receivers.
	MessagesDelivered int64
	// MessagesDropped is always zero: links queue without bound. It
	// stays because the benchmark harness reads it.
	MessagesDropped int64
	// MessagesLost counts messages lost to injected failures (link loss,
	// link outages, node churn).
	MessagesLost int64
	// BytesSent is the total bytes accepted for transmission.
	BytesSent int64
	// BytesDelivered is the total bytes delivered.
	BytesDelivered int64
}

// LinkStats is the per-link accounting.
type LinkStats struct {
	// Bytes transmitted over the link (both directions).
	Bytes int64
	// Messages transmitted over the link.
	Messages int64
	// Lost counts messages lost to injected failures.
	Lost int64
}

var (
	// ErrUnknownNode is returned when addressing a node that was never
	// added.
	ErrUnknownNode = errors.New("netsim: unknown node")
	// ErrNoLink is returned when sending between nodes with no direct
	// link.
	ErrNoLink = errors.New("netsim: no link between nodes")
	// ErrNoRoute is returned when no path exists between two nodes.
	ErrNoRoute = errors.New("netsim: no route")
)

// pendingMsg is one message waiting for (or in) transmission on a link.
// It carries its link so the serialization- and delivery-complete
// callbacks need no per-message closure, and recycles through the
// network's freelist once delivered or lost.
type pendingMsg struct {
	size     int64
	payload  any
	from, to string
	priority int
	seq      uint64

	link *link
	next *pendingMsg // freelist
}

// msgQueue orders pending messages by descending priority, then FIFO.
type msgQueue []*pendingMsg

func (q msgQueue) Len() int { return len(q) }

func (q msgQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}

func (q msgQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *msgQueue) Push(x any) {
	if m, ok := x.(*pendingMsg); ok {
		*q = append(*q, m)
	}
}

func (q *msgQueue) Pop() any {
	old := *q
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return m
}

// link is one directed link.
type link struct {
	bandwidth float64 // bytes per second
	latency   time.Duration

	src, dst *node // endpoints, resolved at AddLink

	queue   msgQueue // waiting messages, highest priority first
	sending bool     // a transmission is in progress
	seq     uint64   // FIFO tiebreak within this link's queue
	stats   LinkStats

	// Injected failure state (see failure.go). rng is the link's own
	// splitmix64 loss stream, derived from the master failure seed and
	// the link's endpoints, so draws are independent of global event
	// interleaving.
	lossProb float64 // per-message loss probability
	rng      uint64  // seeded splitmix64 state; valid once seeded
	down     bool    // link severed: everything on it is lost
}

type node struct {
	handler   Handler
	neighbors []string
	idx       int32 // position in Network.order; keys the route tables
	down      bool  // churned out: sends and deliveries are lost
}

// Network is the emulated network (see the package comment).
type Network struct {
	lane  *simclock.Lane // the lane every node's events run on
	nodes map[string]*node
	links map[[2]string]*link
	stats Stats
	free  *pendingMsg // recycled pendingMsgs

	// Route cache: order maps a node index back to its id, and
	// hopTab[dstIdx] holds the next-hop table toward dst (entry per src,
	// -1 = unreachable; nil until built), built lazily per destination by
	// BFS.
	order  []string
	hopTab [][]int32

	// BFS scratch reused across route builds.
	bfsFrontier, bfsLevel []int32

	// finishTxFn/deliverFn are the method values the transmit path hands
	// to the kernel, bound once here so the hot path allocates no
	// closures.
	finishTxFn, deliverFn func(any)

	// Failure injection (see failure.go).
	failSeed   uint64
	failSeeded bool
	churnHooks []func(id string, up bool)
}

// New creates an empty network on the scheduler's lane.
func New(sched *simclock.Scheduler) *Network {
	n := &Network{
		lane:  sched.Lane,
		nodes: make(map[string]*node),
		links: make(map[[2]string]*link),
	}
	n.finishTxFn = n.finishTx
	n.deliverFn = n.deliver
	return n
}

// NewParallel creates an empty network on kernel k's lane.
//
// Deprecated: ignored; bench/ compiles against it. Use New.
func NewParallel(k *simclock.Kernel) *Network {
	return New(&simclock.Scheduler{Lane: k.AddLane()})
}

// NewAt creates an empty network on a fresh scheduler starting at epoch.
func NewAt(epoch time.Time) *Network { return New(simclock.New(epoch)) }

// Kernel exposes the kernel the network runs on.
func (n *Network) Kernel() *simclock.Kernel { return n.lane.Kernel() }

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.lane.Now() }

// ClockFor returns the clock a node's own logic should read: the
// network's one clock, whatever the id.
func (n *Network) ClockFor(string) simclock.Clock { return n.lane }

// LaneOf returns the lane a node's events run on, the one every node
// shares. It is nil only for an unknown id.
func (n *Network) LaneOf(id string) *simclock.Lane {
	if _, ok := n.nodes[id]; ok {
		return n.lane
	}
	return nil
}

// AtNode schedules fn at the given instant for a known node. Anything that
// touches a single node's state from outside — churn events, query
// injection — goes through here, so it runs in order with the node's own
// events.
func (n *Network) AtNode(id string, at time.Time, fn func()) error {
	if _, ok := n.nodes[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	n.lane.At(at, fn)
	return nil
}

// RunUntil drives the kernel until the deadline. maxEvents (0 =
// unlimited) bounds execution; exceeding it returns simclock.ErrHorizon.
func (n *Network) RunUntil(deadline time.Time, maxEvents int) error {
	return n.Kernel().RunUntil(deadline, maxEvents)
}

// Stats returns the network-wide counters. Call it between runs (or after
// them), not from node code.
func (n *Network) Stats() Stats { return n.stats }

// AddNode registers a node. Adding an existing node replaces its handler.
func (n *Network) AddNode(id string, h Handler) {
	if existing, ok := n.nodes[id]; ok {
		existing.handler = h
		return
	}
	n.nodes[id] = &node{handler: h, idx: int32(len(n.order))}
	n.order = append(n.order, id)
	n.hopTab = append(n.hopTab, nil)
}

// SetHandler replaces a node's message handler.
func (n *Network) SetHandler(id string, h Handler) error {
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nd.handler = h
	return nil
}

// Nodes returns all node ids, sorted.
func (n *Network) Nodes() []string {
	ids := make([]string, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Neighbors returns a node's directly linked peers, sorted. The
// neighbor lists are kept sorted at AddLink time, so this is a copy, not
// a sort.
func (n *Network) Neighbors(id string) []string {
	nd, ok := n.nodes[id]
	if !ok {
		return nil
	}
	return append([]string(nil), nd.neighbors...)
}

// insertSorted adds s to a sorted slice, keeping it sorted.
func insertSorted(ss []string, s string) []string {
	i := sort.SearchStrings(ss, s)
	ss = append(ss, "")
	copy(ss[i+1:], ss[i:])
	ss[i] = s
	return ss
}

// LinkConfig parameterizes a duplex link.
type LinkConfig struct {
	// Bandwidth is the serialization rate in bytes per second.
	Bandwidth float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
}

// AddLink connects a and b with two independent directed links (one per
// direction) sharing the config. Both nodes must exist.
func (n *Network) AddLink(a, b string, cfg LinkConfig) error {
	na, ok := n.nodes[a]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, a)
	}
	nb, ok := n.nodes[b]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, b)
	}
	if _, dup := n.links[[2]string{a, b}]; !dup {
		na.neighbors = insertSorted(na.neighbors, b)
		nb.neighbors = insertSorted(nb.neighbors, a)
	}
	ab := &link{bandwidth: cfg.Bandwidth, latency: cfg.Latency, src: na, dst: nb}
	ba := &link{bandwidth: cfg.Bandwidth, latency: cfg.Latency, src: nb, dst: na}
	if n.failSeeded {
		ab.rng = linkStream(n.failSeed, a, b)
		ba.rng = linkStream(n.failSeed, b, a)
	}
	n.links[[2]string{a, b}] = ab
	n.links[[2]string{b, a}] = ba
	clear(n.hopTab) // topology changed
	return nil
}

// LinkStats returns accounting for the directed link a->b combined with
// b->a.
func (n *Network) LinkStats(a, b string) LinkStats {
	var out LinkStats
	if l, ok := n.links[[2]string{a, b}]; ok {
		out.Bytes += l.stats.Bytes
		out.Messages += l.stats.Messages
		out.Lost += l.stats.Lost
	}
	if l, ok := n.links[[2]string{b, a}]; ok {
		out.Bytes += l.stats.Bytes
		out.Messages += l.stats.Messages
		out.Lost += l.stats.Lost
	}
	return out
}

// Send transmits a message of the given size from one node to a directly
// linked neighbor at default (zero) priority, modeling FIFO serialization
// (size/bandwidth) plus propagation latency. Delivery invokes the
// receiver's handler on the event loop. A link queues without bound.
func (n *Network) Send(from, to string, size int64, payload any) error {
	return n.SendPriority(from, to, size, 0, payload)
}

// SendPriority is Send with an explicit priority class (Section V-C
// preferential treatment): within one link, higher-priority messages are
// serialized before lower-priority backlog; the in-flight transmission is
// never preempted.
func (n *Network) SendPriority(from, to string, size int64, priority int, payload any) error {
	if _, ok := n.nodes[from]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if _, ok := n.nodes[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	l, ok := n.links[[2]string{from, to}]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrNoLink, from, to)
	}
	if size < 0 {
		size = 0
	}
	l.stats.Bytes += size
	l.stats.Messages++
	n.stats.MessagesSent++
	n.stats.BytesSent += size
	m := n.free
	if m != nil {
		n.free = m.next
		*m = pendingMsg{size: size, payload: payload, from: from, to: to, priority: priority, seq: l.seq, link: l}
	} else {
		m = &pendingMsg{size: size, payload: payload, from: from, to: to, priority: priority, seq: l.seq, link: l}
	}
	l.seq++
	if !l.sending {
		// An idle link has an empty queue (transmitNext leaves it idle
		// only then): m is next whatever its priority, so it goes
		// straight onto the wire without a trip through the heap.
		n.transmit(l, m)
		return nil
	}
	heap.Push(&l.queue, m)
	return nil
}

// release returns a delivered or lost message to the freelist.
func (n *Network) release(m *pendingMsg) {
	*m = pendingMsg{next: n.free}
	n.free = m
}

// transmitNext starts serializing the highest-priority waiting message on
// the link.
func (n *Network) transmitNext(l *link) {
	if len(l.queue) == 0 {
		l.sending = false
		return
	}
	m, ok := heap.Pop(&l.queue).(*pendingMsg)
	if !ok {
		l.sending = false
		return
	}
	n.transmit(l, m)
}

// transmit starts serializing m on the link.
func (n *Network) transmit(l *link, m *pendingMsg) {
	l.sending = true
	txTime := time.Duration(float64(m.size) / l.bandwidth * float64(time.Second))
	n.lane.AfterCall(txTime, n.finishTxFn, m)
}

// finishTx runs when a message's serialization completes: the link is
// free for its next message, and the frame either dies to an injected
// failure or propagates toward delivery, one link latency later.
func (n *Network) finishTx(arg any) {
	m, ok := arg.(*pendingMsg)
	if !ok {
		return
	}
	l := m.link
	// Failure check at the end of serialization: a link outage, source
	// churn, or the link's seeded loss draw destroys the frame in
	// transit. (Destination churn is judged at arrival — see deliver.)
	if n.lose(l) {
		l.stats.Lost++
		n.stats.MessagesLost++
		n.release(m)
		n.transmitNext(l)
		return
	}
	n.lane.AfterCall(l.latency, n.deliverFn, m)
	n.transmitNext(l)
}

// deliver runs after propagation: the message reaches its destination, or
// dies there if the destination has churned out by the arrival instant.
func (n *Network) deliver(arg any) {
	m, ok := arg.(*pendingMsg)
	if !ok {
		return
	}
	l := m.link
	dst := l.dst
	if dst.down {
		l.stats.Lost++
		n.stats.MessagesLost++
		n.release(m)
		return
	}
	n.stats.MessagesDelivered++
	n.stats.BytesDelivered += m.size
	if dst.handler != nil {
		dst.handler(m.from, m.size, m.payload)
	}
	n.release(m)
}

// NextHop returns the next hop on a shortest (fewest-hops) path from src
// toward dst, computing and caching routes by BFS. Ties break toward the
// lexicographically smallest neighbor for determinism. The table
// contents depend only on the topology, so which node asks first never
// matters.
func (n *Network) NextHop(src, dst string) (string, error) {
	if src == dst {
		return dst, nil
	}
	sn, ok := n.nodes[src]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	dn, ok := n.nodes[dst]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	tab := n.hopTab[dn.idx]
	if tab == nil {
		tab = n.buildRoute(dn)
	}
	if hi := tab[sn.idx]; hi >= 0 {
		return n.order[hi], nil
	}
	return "", fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
}

// buildRoute computes and caches the next-hop table toward dn by a
// backward BFS, so each visited node learns its next hop toward dn in
// one pass. The per-destination table is cached until the topology
// changes: n int32s per destination, not a map entry per (src, dst)
// string pair.
func (n *Network) buildRoute(dn *node) []int32 {
	tab := make([]int32, len(n.order))
	for i := range tab {
		tab[i] = -1
	}
	tab[dn.idx] = dn.idx
	frontier := append(n.bfsFrontier[:0], dn.idx)
	level := n.bfsLevel[:0]
	for len(frontier) > 0 {
		level = level[:0]
		for _, cur := range frontier {
			for _, nb := range n.nodes[n.order[cur]].neighbors {
				nbi := n.nodes[nb].idx
				if tab[nbi] >= 0 {
					continue
				}
				tab[nbi] = cur
				level = append(level, nbi)
			}
		}
		frontier, level = level, frontier
	}
	n.bfsFrontier, n.bfsLevel = frontier, level
	n.hopTab[dn.idx] = tab
	return tab
}

// PathLength returns the hop count of the shortest path from src to dst.
func (n *Network) PathLength(src, dst string) (int, error) {
	hops := 0
	cur := src
	for cur != dst {
		next, err := n.NextHop(cur, dst)
		if err != nil {
			return 0, err
		}
		cur = next
		hops++
		if hops > len(n.nodes) {
			return 0, fmt.Errorf("%w: routing loop %s -> %s", ErrNoRoute, src, dst)
		}
	}
	return hops, nil
}
