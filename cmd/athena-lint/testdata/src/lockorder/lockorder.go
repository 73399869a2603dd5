// Package lockorder is a fixture corpus for the lockorder check: nested
// acquisition of the hot locks against the canonical order. The types
// mirror the repo's hot-lock chain by name.
package lockorder

import "sync"

// Node stands in for the membership/node lock (rank 0).
type Node struct {
	mu sync.Mutex
}

// ShardRouter stands in for the routed-lookup lock (rank 1).
type ShardRouter struct {
	mu sync.Mutex
}

// Directory stands in for the directory lock (rank 2).
type Directory struct {
	mu sync.RWMutex
}

// Inverted takes Directory before Node: violation.
func Inverted(n *Node, d *Directory) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
}

// Canonical takes Node before Directory: fine.
func Canonical(n *Node, d *Directory) {
	n.mu.Lock()
	defer n.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}

// Sequential releases before the next acquisition: fine.
func Sequential(n *Node, d *Directory) {
	d.mu.Lock()
	d.mu.Unlock()
	n.mu.Lock()
	n.mu.Unlock()
}

// InvertedRouter takes ShardRouter before Node: violation.
func InvertedRouter(n *Node, r *ShardRouter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
}

// RouterCanonical takes Node, then ShardRouter, then Directory: fine.
func RouterCanonical(n *Node, r *ShardRouter, d *Directory) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}

// tcpPeer stands in for the per-peer transport lock (transport chain).
type tcpPeer struct {
	mu sync.Mutex
}

// lockShard acquires the ShardRouter lock: a helper whose acquisition
// only matters to callers that already hold something.
func lockShard(r *ShardRouter) {
	r.mu.Lock()
	defer r.mu.Unlock()
}

// InvertedThroughCall holds Directory and reaches the ShardRouter lock
// through lockShard: the inversion exists only interprocedurally.
func InvertedThroughCall(d *Directory, r *ShardRouter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lockShard(r)
}

// CrossChainAB holds Directory, then takes tcpPeer: no declared rank
// relates the two chains, so this edge is locally legal.
func CrossChainAB(d *Directory, p *tcpPeer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
}

// CrossChainBA takes them in the opposite order: combined with
// CrossChainAB the inferred graph has a cycle no rank row forbids, and
// some interleaving of the two functions deadlocks.
func CrossChainBA(d *Directory, p *tcpPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}
