// Package netsim is the network emulator substrate standing in for the
// EMANE-Shim emulator the paper used (Section VII). It models a static
// topology of duplex links, each with a bandwidth, propagation latency,
// and a FIFO transmission queue (store-and-forward), on top of the
// deterministic discrete-event machinery in internal/simclock. Per-link
// and network-wide byte accounting provides the bandwidth measurements
// behind Figure 3.
//
// A Network runs on a simclock.Kernel in one of two lane layouts. New
// hands every node the one lane of a simclock.Scheduler, so all events
// run in global schedule order. NewParallel assigns every node its own
// lane: all of a node's work — serialization on its outgoing links,
// timer callbacks, handler invocations — executes on that lane, and the
// only cross-lane effects are message deliveries, posted with a delay of
// at least the link latency (the kernel's conservative lookahead). The
// transmit/deliver path is the same code in both. Each layout is a pure
// function of the seed, and lane-per-node is additionally identical at
// any worker count; the two layouts order same-instant events
// differently (schedule order vs the kernel's canonical merge order), so
// they agree on every protocol outcome but are not byte-identical to
// each other.
package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
	// MessagesDropped counts messages dropped at full link queues.
	MessagesDropped int64
	// MessagesLost counts messages lost to injected failures (link loss,
	// link outages, node churn).
	MessagesLost int64
	// BytesSent is the total bytes accepted for transmission.
	BytesSent int64
	// BytesDelivered is the total bytes delivered.
	BytesDelivered int64
}

// add accumulates other into s.
func (s *Stats) add(o *Stats) {
	s.MessagesSent += o.MessagesSent
	s.MessagesDelivered += o.MessagesDelivered
	s.MessagesDropped += o.MessagesDropped
	s.MessagesLost += o.MessagesLost
	s.BytesSent += o.BytesSent
	s.BytesDelivered += o.BytesDelivered
}

// LinkStats is the per-link accounting.
type LinkStats struct {
	// Bytes transmitted over the link (both directions).
	Bytes int64
	// Messages transmitted over the link.
	Messages int64
	// Dropped counts queue-overflow drops.
	Dropped int64
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
// callbacks need no per-message closure, and recycles through per-node
// freelists once delivered or lost.
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

// link is one directed link. Every field except lost belongs to the
// source node's lane: Send, serialization, the
// queue, and the failure draw all run there. lost alone is atomic
// because the destination lane also counts losses (a message arriving
// at a churned-out node).
type link struct {
	bandwidth float64 // bytes per second
	latency   time.Duration
	queueCap  int64 // max queued-but-unsent bytes; <=0 means unbounded

	src, dst *node // endpoints, resolved at AddLink

	queue   msgQueue // waiting messages, highest priority first
	sending bool     // a transmission is in progress
	queued  int64    // bytes accepted but not yet fully serialized
	seq     uint64   // FIFO tiebreak within this link's queue
	stats   LinkStats
	lost    atomic.Int64 // injected-failure losses (src and dst lanes)

	// Injected failure state (see failure.go). rng is the link's own
	// splitmix64 loss stream, derived from the master failure seed and
	// the link's endpoints, so draws are independent of global event
	// interleaving — a requirement for worker-count independence.
	lossProb float64 // per-message loss probability
	rng      uint64  // seeded splitmix64 state; valid once seeded
	down     bool    // link severed: everything on it is lost
}

type node struct {
	handler   Handler
	neighbors []string
	idx       int32          // position in Network.order; keys the route tables
	lane      *simclock.Lane // the lane all of this node's events run on
	down      bool           // churned out: sends and deliveries are lost

	freeMsgs *pendingMsg // recycled pendingMsgs, owned by this node's lane
}

// Network is the emulated network (see the package comment for its two
// lane layouts).
type Network struct {
	kernel *simclock.Kernel
	shared *simclock.Lane // the lane every node runs on; nil = a lane per node
	nodes  map[string]*node
	links  map[[2]string]*link

	// perNode holds each node's share of the network counters, indexed
	// by node idx. Every event mutates only the slot of the lane it runs
	// on, so no synchronization is needed; Stats sums the slots.
	perNode []Stats

	// Route cache: order maps a node index back to its id, and
	// hopTab[dstIdx] holds the next-hop table toward dst (entry per src,
	// -1 = unreachable), built lazily per destination by BFS. Tables are
	// atomic pointers because any lane may ask for a route; builders
	// serialize on routeMu. The slice itself grows only in AddNode, one
	// slot per node, never while lanes index it during a run.
	order   []string
	routeMu sync.Mutex
	hopTab  []atomic.Pointer[[]int32]

	// BFS scratch reused across route builds; guarded by routeMu.
	bfsFrontier, bfsLevel []int32

	// minLatency is the smallest link latency — the kernel's
	// conservative lookahead.
	minLatency  time.Duration
	haveLatency bool

	// finishTxFn/deliverFn are the method values the transmit path hands
	// to the kernel, bound once here so the hot path allocates no
	// closures.
	finishTxFn, deliverFn func(any)

	// Failure injection (see failure.go).
	failSeed   uint64
	failSeeded bool
	churnHooks []func(id string, up bool)
}

// New creates an empty network whose nodes all share the scheduler's
// one lane: events run in global (time, schedule) order.
func New(sched *simclock.Scheduler) *Network {
	n := NewParallel(sched.Kernel())
	n.shared = sched.Lane
	return n
}

// NewParallel creates an empty network on kernel k in which each AddNode
// claims a lane of its own. RunUntil drives the kernel with a lookahead
// of the minimum link latency.
func NewParallel(k *simclock.Kernel) *Network {
	n := &Network{
		kernel: k,
		nodes:  make(map[string]*node),
		links:  make(map[[2]string]*link),
	}
	n.finishTxFn = n.finishTx
	n.deliverFn = n.deliver
	return n
}

// NewAt creates an empty network starting at epoch in the lane layout
// workers selects: 0 is New on a fresh scheduler (one shared lane); a
// positive count is NewParallel on a kernel with that many workers, seed
// feeding its cross-lane merge tie-break.
func NewAt(epoch time.Time, workers int, seed int64) *Network {
	if workers <= 0 {
		return New(simclock.New(epoch))
	}
	return NewParallel(simclock.NewKernel(epoch, simclock.KernelOpts{Workers: workers, Seed: uint64(seed)}))
}

// Kernel exposes the kernel the network runs on.
func (n *Network) Kernel() *simclock.Kernel { return n.kernel }

// Now returns the current committed virtual time.
func (n *Network) Now() time.Time { return n.kernel.Now() }

// ClockFor returns the clock a node's own logic should read: the node's
// lane, which tracks the node's current event during execution. Unknown
// ids read the kernel's committed time.
func (n *Network) ClockFor(id string) simclock.Clock {
	if nd, ok := n.nodes[id]; ok {
		return nd.lane
	}
	return n.kernel
}

// LaneOf returns the lane a node's events run on: its own, or the one
// every node shares. It is nil only for an unknown id.
func (n *Network) LaneOf(id string) *simclock.Lane {
	if nd, ok := n.nodes[id]; ok {
		return nd.lane
	}
	return nil
}

// AtNode schedules fn at the given instant on the node's lane. Anything
// that touches a single node's state from outside — churn events, query
// injection — must be routed through here so it executes on the lane
// that owns the state.
func (n *Network) AtNode(id string, at time.Time, fn func()) error {
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nd.lane.At(at, fn)
	return nil
}

// RunUntil drives the kernel until the deadline. maxEvents (0 =
// unlimited) bounds execution; exceeding it returns simclock.ErrHorizon.
func (n *Network) RunUntil(deadline time.Time, maxEvents int) error {
	n.kernel.SetLookahead(n.minLatency)
	return n.kernel.RunUntil(deadline, maxEvents)
}

// Stats returns the network-wide counters, summed over the per-node
// shares. Call it between runs (or after them), not from node code.
func (n *Network) Stats() Stats {
	var out Stats
	for i := range n.perNode {
		out.add(&n.perNode[i])
	}
	return out
}

// AddNode registers a node. Adding an existing node replaces its handler.
func (n *Network) AddNode(id string, h Handler) {
	if existing, ok := n.nodes[id]; ok {
		existing.handler = h
		return
	}
	nd := &node{handler: h, idx: int32(len(n.order)), lane: n.shared}
	if nd.lane == nil {
		nd.lane = n.kernel.AddLane()
	}
	n.nodes[id] = nd
	n.order = append(n.order, id)
	n.perNode = append(n.perNode, Stats{})
	n.hopTab = append(n.hopTab, atomic.Pointer[[]int32]{})
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
	// QueueBytes bounds the transmission backlog; <= 0 means unbounded.
	QueueBytes int64
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
	ab := &link{bandwidth: cfg.Bandwidth, latency: cfg.Latency, queueCap: cfg.QueueBytes, src: na, dst: nb}
	ba := &link{bandwidth: cfg.Bandwidth, latency: cfg.Latency, queueCap: cfg.QueueBytes, src: nb, dst: na}
	if n.failSeeded {
		ab.rng = linkStream(n.failSeed, a, b)
		ba.rng = linkStream(n.failSeed, b, a)
	}
	n.links[[2]string{a, b}] = ab
	n.links[[2]string{b, a}] = ba
	if !n.haveLatency || cfg.Latency < n.minLatency {
		n.minLatency = cfg.Latency
		n.haveLatency = true
	}
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
		out.Dropped += l.stats.Dropped
		out.Lost += l.lost.Load()
	}
	if l, ok := n.links[[2]string{b, a}]; ok {
		out.Bytes += l.stats.Bytes
		out.Messages += l.stats.Messages
		out.Dropped += l.stats.Dropped
		out.Lost += l.lost.Load()
	}
	return out
}

// Send transmits a message of the given size from one node to a directly
// linked neighbor at default (zero) priority, modeling FIFO serialization
// (size/bandwidth) plus propagation latency. Delivery invokes the
// receiver's handler on the event loop. Messages beyond a bounded queue
// are dropped (counted, no error) — overload behaves like a real link.
// Send must be called from the sending node's lane (node handlers and
// timers already are).
func (n *Network) Send(from, to string, size int64, payload any) error {
	return n.SendPriority(from, to, size, 0, payload)
}

// SendPriority is Send with an explicit priority class (Section V-C
// preferential treatment): within one link, higher-priority messages are
// serialized before lower-priority backlog; the in-flight transmission is
// never preempted.
func (n *Network) SendPriority(from, to string, size int64, priority int, payload any) error {
	nf, ok := n.nodes[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if _, ok := n.nodes[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	l, ok := n.links[[2]string{from, to}]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrNoLink, from, to)
	}
	st := &n.perNode[nf.idx]
	if size < 0 {
		size = 0
	}
	if l.queueCap > 0 && l.queued+size > l.queueCap {
		l.stats.Dropped++
		st.MessagesDropped++
		return nil
	}

	l.queued += size
	l.stats.Bytes += size
	l.stats.Messages++
	st.MessagesSent++
	st.BytesSent += size
	m := nf.freeMsgs
	if m != nil {
		nf.freeMsgs = m.next
		*m = pendingMsg{size: size, payload: payload, from: from, to: to, priority: priority, seq: l.seq, link: l}
	} else {
		m = &pendingMsg{size: size, payload: payload, from: from, to: to, priority: priority, seq: l.seq, link: l}
	}
	heap.Push(&l.queue, m)
	l.seq++
	if !l.sending {
		n.transmitNext(l)
	}
	return nil
}

// releaseTo returns a delivered or lost message to owner's freelist.
func (n *Network) releaseTo(owner *node, m *pendingMsg) {
	*m = pendingMsg{next: owner.freeMsgs}
	owner.freeMsgs = m
}

// transmitNext starts serializing the highest-priority waiting message on
// the link. It runs on the link's source lane.
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
	l.sending = true
	txTime := time.Duration(float64(m.size) / l.bandwidth * float64(time.Second))
	l.src.lane.AfterCall(txTime, n.finishTxFn, m)
}

// finishTx runs when a message's serialization completes (on the source
// lane): the link is free for its next message, and the frame either
// dies to an injected failure or propagates toward delivery. The
// propagation hop is the one cross-lane edge (a local event when the
// lane is shared): its delay is the link latency, which is at least the
// kernel's lookahead by construction, satisfying the conservative
// contract.
func (n *Network) finishTx(arg any) {
	m, ok := arg.(*pendingMsg)
	if !ok {
		return
	}
	l := m.link
	l.queued -= m.size
	// Failure check at the end of serialization: a link outage, source
	// churn, or the link's seeded loss draw destroys the frame in
	// transit. (Destination churn is judged at arrival, on the
	// destination's lane — see deliver.)
	if n.lose(l) {
		l.lost.Add(1)
		n.perNode[l.src.idx].MessagesLost++
		n.releaseTo(l.src, m)
		n.transmitNext(l)
		return
	}
	l.src.lane.Post(l.dst.lane, l.src.lane.Now().Add(l.latency), n.deliverFn, m)
	n.transmitNext(l)
}

// deliver runs after propagation, on the destination lane: the message
// reaches its destination, or dies there if the destination has churned
// out by the arrival instant.
func (n *Network) deliver(arg any) {
	m, ok := arg.(*pendingMsg)
	if !ok {
		return
	}
	l := m.link
	dst := l.dst
	st := &n.perNode[dst.idx]
	if dst.down {
		l.lost.Add(1)
		st.MessagesLost++
		n.releaseTo(dst, m)
		return
	}
	st.MessagesDelivered++
	st.BytesDelivered += m.size
	if dst.handler != nil {
		dst.handler(m.from, m.size, m.payload)
	}
	n.releaseTo(dst, m)
}

// NextHop returns the next hop on a shortest (fewest-hops) path from src
// toward dst, computing and caching routes by BFS. Ties break toward the
// lexicographically smallest neighbor for determinism. Safe to call from
// any lane: route tables are atomically published and builders serialize
// on routeMu, and the table contents depend only on the topology, so the
// cache is worker-count independent.
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
	if tab := n.hopTab[dn.idx].Load(); tab != nil {
		if hi := (*tab)[sn.idx]; hi >= 0 {
			return n.order[hi], nil
		}
		return "", fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
	}
	return n.buildRoute(sn, dn, src, dst)
}

// buildRoute computes and publishes the next-hop table toward dst by a
// backward BFS, so each visited node learns its next hop toward dst in
// one pass. The per-destination table is cached until the topology
// changes: n int32s per destination, not a map entry per (src, dst)
// string pair.
func (n *Network) buildRoute(sn, dn *node, src, dst string) (string, error) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	// Another lane may have published the table while we waited.
	if tab := n.hopTab[dn.idx].Load(); tab != nil {
		if hi := (*tab)[sn.idx]; hi >= 0 {
			return n.order[hi], nil
		}
		return "", fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
	}
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
	n.hopTab[dn.idx].Store(&tab)
	if hi := tab[sn.idx]; hi >= 0 {
		return n.order[hi], nil
	}
	return "", fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
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
