package athena

import (
	"errors"
	"sort"
	"time"

	"athena/internal/object"
	"athena/internal/transport"
)

// This file implements the live-membership layer (the deployment half of
// the paper's semantic lookup service, refs [8][9]): nodes advertise their
// source streams, flood heartbeats so every replica's failure detector
// hears every live node, evict sources that miss heartbeatMiss beats,
// re-source in-flight fetches of evicted sources, and reconcile diverged
// directory replicas with push-pull seq-vector anti-entropy after a
// partition heals. The same code path runs over the deterministic
// simulator (cluster churn) and over real TCP (cmd/athenad join/leave).

// membership is the live-membership component: the state both protocols
// share, plus exactly one of them — flood (heartbeats every replica hears,
// below) or swim (sampled probes, swim.go). It exists only when
// Config.HeartbeatInterval > 0; a node without it has a static directory.
// Node.mu guards it. It knows nothing of the node: what must also touch
// the directory, the query plane or the transport is a Node method that
// reads these fields.
type membership struct {
	interval  time.Duration        // the protocol period
	adSeq     uint64               // this node's advertisement sequence number
	lastHeard map[string]time.Time // source -> last heartbeat, probe, ack or advert
	lastSync  map[string]time.Time // peer -> last anti-entropy request time
	flood     *floodProto          // exactly one of flood and swim is set
	swim      *swimProto
}

// floodProto is what the flood protocol keeps beyond the shared state.
type floodProto struct {
	beatSeq  uint64            // this node's heartbeat counter
	seenBeat map[string]uint64 // node -> highest heartbeat re-flooded
}

func newMembership(cfg Config) *membership {
	mem := &membership{
		interval:  cfg.HeartbeatInterval,
		lastHeard: make(map[string]time.Time),
		lastSync:  make(map[string]time.Time),
	}
	if cfg.GossipFanout > 0 {
		mem.swim = newSwim(cfg)
	} else {
		mem.flood = &floodProto{seenBeat: make(map[string]uint64)}
	}
	return mem
}

// liveness is the running detector's verdict on one source, for /statusz.
// The flood hears every live node every interval, so silence past the miss
// budget is evidence. A sampled prober contacts a given peer only every
// ~(n-1)/2k periods, so under SWIM silence is not: a listed source is
// alive unless a probe of it is currently unanswered.
func (mem *membership) liveness(src string, present bool, now time.Time) (last time.Time, alive bool) {
	last, heard := mem.lastHeard[src]
	if mem.swim != nil {
		_, suspected := mem.swim.suspects[src]
		return last, present && !suspected
	}
	return last, heard && now.Sub(last) <= heartbeatMiss*mem.interval
}

// memberTick runs one protocol period — a flooded heartbeat, or a SWIM
// probe round — and re-arms itself. arg is the node: a plain function and
// an argument already on the heap, so a period allocates no closure.
func memberTick(arg any) {
	n := arg.(*Node)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.member.swim != nil {
		n.gossipTick()
	} else {
		n.heartbeatTick()
	}
	n.timers.AfterArg(n.member.interval, memberTick, n)
}

// heartbeatTick floods one heartbeat and runs the failure detector.
// Callers hold n.mu.
func (n *Node) heartbeatTick() {
	mem := n.member
	now := n.now()
	mem.flood.beatSeq++
	n.floodCtl(&Heartbeat{Node: n.id, Beat: mem.flood.beatSeq, AdvSeq: mem.adSeq, Digest: n.dir.Digest()}, "")
	n.stats.HeartbeatsSent++

	// Failure detection: a present source (other than us) that has been
	// silent for heartbeatMiss intervals is evicted. A source we have never
	// heard from gets its grace clock armed now.
	deadline := heartbeatMiss * mem.interval
	for _, src := range n.dir.Sources() {
		if src == n.id {
			continue
		}
		last, ok := mem.lastHeard[src]
		if !ok {
			mem.lastHeard[src] = now
			continue
		}
		if now.Sub(last) > deadline {
			n.evictSource(src)
		}
	}
}

// evictSource removes a silent source from the directory and re-sources
// every in-flight fetch that was waiting on it via the directory's
// alternate-source path. Callers hold n.mu.
func (n *Node) evictSource(src string) {
	desc, had := n.descriptorOf(src)
	if !n.dir.Evict(src) {
		return
	}
	n.stats.Evictions++
	n.sourceGone(src, desc, had)
}

// sourceGone is what follows the directory dropping a source, evicted or
// withdrawn (a tombstone advert): the detectors forget it, then
// shard lookups waiting on it are re-routed, then fetches in flight to it
// are re-sourced — in that order, the pumps read what the re-routing
// invalidated. desc is its descriptor from before the drop. Callers hold
// n.mu.
func (n *Node) sourceGone(src string, desc object.Descriptor, had bool) {
	delete(n.member.lastHeard, src)
	n.member.unsuspect(src)
	n.shardOnSourceDown(src)
	if had {
		n.reSourceFrom(src, desc.Name.String())
	}
}

// reSourceFrom takes in-flight fetches of the given object out of flight
// and marks its source suspect on every affected query, then pumps them so
// the next request goes to an alternate covering source
// (sourceFor). Callers hold n.mu.
func (n *Node) reSourceFrom(src, objName string) {
	for q := n.liveAfter(""); q != nil; q = n.liveAfter(q.engine.ID()) {
		if _, was := q.step(objName, reqLost, 0); !was {
			continue
		}
		q.suspectSource(src)
		n.pump(q)
	}
}

// floodCtl fans a control message out to all neighbors except one,
// charging each copy to the control-plane counters. Callers hold n.mu.
func (n *Node) floodCtl(msg frame, except string) {
	size := msg.WireSize()
	for _, nb := range n.tr.Neighbors() {
		if nb != except {
			n.accountCtl(size)
			n.ship(nb, msg, size, 0)
		}
	}
}

// handleHeartbeat tracks liveness, re-floods the beat, and triggers
// anti-entropy when the beat reveals a missing advertisement or a
// diverged directory. Callers hold n.mu.
func (n *Node) handleHeartbeat(from string, hb *Heartbeat) {
	seen := n.member.flood.seenBeat
	if hb.Node == n.id || hb.Beat <= seen[hb.Node] {
		return
	}
	seen[hb.Node] = hb.Beat
	now := n.now()
	n.member.lastHeard[hb.Node] = now
	n.floodCtl(hb, from)
	// A flood eviction is this replica's own verdict on silence, so a beat
	// at the evicted record's seq undoes it here: no exchange could, as
	// this replica's seq vector claims that seq.
	n.dir.Readmit(hb.Node, hb.AdvSeq)
	// The advert and digest examined are the originator's, but the flood
	// protocol syncs with the neighbor that delivered the beat: the
	// exchange then crosses one link, not a route.
	n.checkPeerState(hb.Node, from, hb.AdvSeq, hb.Digest, now)
}

// maybeSync opens a push-pull anti-entropy exchange with a peer,
// rate-limited to one per heartbeat interval per peer. Callers hold n.mu.
func (n *Node) maybeSync(peer string, now time.Time) {
	mem := n.member
	if last, ok := mem.lastSync[peer]; ok && now.Sub(last) < mem.interval {
		return
	}
	mem.lastSync[peer] = now
	var shared []uint32
	if n.shard != nil {
		// Sharded replicas reconcile only the shards both sides own; the
		// rest of the seq space converges through the piggyback channel.
		// Nothing shared means nothing to exchange (the rate-limit slot
		// still burns, bounding re-checks against this peer).
		shared = n.shard.router.SharedShards(peer)
		if len(shared) == 0 {
			return
		}
	}
	n.stats.SyncExchanges++
	n.sendSync(peer, shared)
}

// sendSync opens an exchange with peer, scoped to shards when any are
// given: it routes a compact seq vector to the (possibly distant) peer —
// the watermark the peer extracts its delta against — and each side then
// ships only the records the other's vector is behind on (Demers et al.'s
// push-pull anti-entropy). The exchange reconciles the directory only:
// label records keep flowing through the retrieval plane (query answers),
// and shipping the label cache on every digest divergence would dwarf the
// control traffic the vector exists to bound. Callers hold n.mu.
func (n *Node) sendSync(peer string, shards []uint32) {
	n.sendCtl(peer, &SyncRequest{From: n.id, To: peer, Shards: shards, Seqs: n.dir.SeqVector(n.syncScope(shards))})
}

// syncScope is the directory scope of an exchange over shards: nil, the
// whole directory, when it is unscoped. Only a sharded node sends or
// takes a scoped one. Callers hold n.mu.
func (n *Node) syncScope(shards []uint32) func(object.Descriptor) bool {
	if len(shards) == 0 {
		return nil
	}
	return n.shard.router.InShards(shards)
}

// handleSyncRequest answers with the delta against the requester's seq
// vector plus this replica's own vector, within the request's scope. A
// scoped request with an empty vector is the backfill of a shard the
// requester has just gained, whose records there are all thin: it is owed
// that shard's records, not the whole directory. Callers hold n.mu.
func (n *Node) handleSyncRequest(req *SyncRequest) {
	scope := n.syncScope(req.Shards)
	n.sendCtl(req.From, &SyncResponse{
		From:    n.id,
		To:      req.From,
		Shards:  req.Shards,
		Adverts: n.dir.Delta(req.Seqs, scope),
		Seqs:    n.dir.SeqVector(scope),
	})
}

// handleSyncResponse applies the pull half and pushes back whatever the
// responder's vector shows it is still missing within the exchange's
// scope — closing it with both replicas at the union of their records. An
// empty vector gets no push: its replica holds nothing in the scope, as a
// node that has just gained a shard, which backfills it by a request of
// its own. Callers hold n.mu.
func (n *Node) handleSyncResponse(resp *SyncResponse) {
	n.applyAdverts(resp.Adverts, "")
	if len(resp.Seqs) == 0 {
		return
	}
	if push := n.dir.Delta(resp.Seqs, n.syncScope(resp.Shards)); len(push) > 0 {
		n.sendCtl(resp.From, &AdvertGossip{To: resp.From, Adverts: push})
	}
}

// applyOneAdvert merges one advertisement record into the directory with
// its liveness and re-sourcing side effects, and reports whether it was
// news. Dissemination is the caller's business. Callers hold n.mu.
func (n *Node) applyOneAdvert(a Advertisement, now time.Time) bool {
	if a.Source == n.id {
		return false // we are the authority on our own advertisement
	}
	// Only a withdraw needs the descriptor it drops, and reading one
	// builds the directory's view if this version has none yet.
	var desc object.Descriptor
	var hadDesc bool
	if a.Withdrawn {
		desc, hadDesc = n.descriptorOf(a.Source)
	}
	if !n.dir.Apply(a) {
		return false
	}
	if a.Withdrawn {
		n.sourceGone(a.Source, desc, hadDesc)
	} else {
		n.member.unsuspect(a.Source)
		n.member.lastHeard[a.Source] = now
	}
	return true
}

// applyAdverts merges advertisement records into the directory,
// re-sources fetches stranded by applied withdrawals, and disseminates
// the records that were news — flooding them to all neighbors except the
// one they came from, or (gossip mode) enqueueing them on the piggyback
// buffer. A flooded AdvertGossip is handled by exactly this, so its flood
// self-terminates on convergence; a graceful leave is one such flood.
// Callers hold n.mu.
func (n *Node) applyAdverts(advs []Advertisement, from string) []Advertisement {
	now := n.now()
	var news []Advertisement
	for _, a := range advs {
		if !n.refuseSeq(a.Seq, a.Withdrawn) && n.applyOneAdvert(a, now) {
			news = append(news, a)
		}
	}
	if len(news) > 0 {
		n.spreadAdverts(news, from, now)
	}
	return news
}

// refuseSeq reports whether seq is one no record may take (seqHoldable:
// notice marks a tombstone or an eviction notice), counting the refusal.
// Callers hold n.mu.
func (n *Node) refuseSeq(seq uint64, notice bool) bool {
	if seqHoldable(seq, notice) {
		return false
	}
	n.stats.RecordsRefused++
	return true
}

// spreadAdverts disseminates advertisement records that are news: on the
// piggyback buffer under SWIM, otherwise flooded to all neighbors except
// the one they came from. Callers hold n.mu.
func (n *Node) spreadAdverts(news []Advertisement, except string, now time.Time) {
	if n.member.swim == nil {
		n.floodCtl(&AdvertGossip{Adverts: news}, except)
		return
	}
	for _, a := range news {
		n.enqueuePiggy(MemberUpdate{Adv: a, Born: now})
	}
}

// handlePeerJoin admits a newcomer: learn its address (on transports that
// support it), apply and propagate its advertisements, and answer with
// this replica's directory plus the peer addresses it knows. The join is
// re-flooded while the joiner's address is news so existing members learn
// it too — gossip probes and acks need a dialable address for every
// member, and the joiner only handshakes with one of them. Callers hold
// n.mu.
func (n *Node) handlePeerJoin(from string, pj *PeerJoin) {
	if pj.Node == n.id {
		return
	}
	news := false
	if pa, ok := n.tr.(transport.PeerAdder); ok && pj.Addr != "" {
		news = n.peerAddrs()[pj.Node] != pj.Addr
		pa.AddPeer(pj.Node, pj.Addr)
	}
	n.member.lastHeard[pj.Node] = n.now()
	n.applyAdverts(pj.Adverts, pj.Node)
	if from == pj.Node {
		// Direct handshake: answer with our directory and peer map.
		// Flooded copies stay one-way — the joiner already has an ack.
		n.sendCtl(pj.Node, &PeerJoinAck{
			Node:    n.id,
			Addr:    n.selfAddr(),
			Peers:   n.peerAddrs(),
			Adverts: n.dir.Snapshot(),
		})
	}
	if news {
		n.floodCtl(pj, from)
	}
}

// handlePeerJoinAck completes the joiner's side of the handshake: learn
// every peer address the responder shared and merge its directory.
// Callers hold n.mu.
func (n *Node) handlePeerJoinAck(ack *PeerJoinAck) {
	if pa, ok := n.tr.(transport.PeerAdder); ok {
		if ack.Addr != "" {
			pa.AddPeer(ack.Node, ack.Addr)
		}
		ids := make([]string, 0, len(ack.Peers))
		for id := range ack.Peers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if id != n.id && ack.Peers[id] != "" {
				pa.AddPeer(id, ack.Peers[id])
			}
		}
	}
	n.member.lastHeard[ack.Node] = n.now()
	n.applyAdverts(ack.Adverts, ack.Node)
}

var errMembershipOff = errors.New("athena: membership disabled (set HeartbeatInterval)")

// Join introduces this node to an already-known peer: it sends the join
// handshake carrying this node's advertisements and (over TCP) its
// dialable address. The peer answers with its directory and peer list.
// On TCP the peer must have been added to the transport first.
func (n *Node) Join(peer string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.member == nil {
		return errMembershipOff
	}
	pj := &PeerJoin{Node: n.id, Addr: n.selfAddr(), Adverts: n.dir.Snapshot()}
	size := pj.WireSize()
	n.accountCtl(size)
	return n.transmit(peer, pj, size, 0)
}

// Leave spreads this node's graceful departure as a tombstone advert at
// its current sequence number, as any withdrawn record travels: flooded,
// or on the piggyback channel. Every replica tombstones its advertisement
// and re-sources fetches that depended on it.
func (n *Node) Leave() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	mem := n.member
	if mem == nil {
		return errMembershipOff
	}
	now := n.now()
	n.writeOwnRecord(Advertisement{Source: n.id, Seq: mem.adSeq, Withdrawn: true}, now)
	if sw := mem.swim; sw != nil {
		// An immediate probe round seeds the tombstone's dissemination
		// before this node goes quiet.
		sw.left = true
		n.refreshSampler()
		for _, target := range sw.sampler.Next(sw.fanout) {
			n.sendProbe(target, now)
		}
	}
	return nil
}

// writeOwnRecord is the one place this node changes its own record after
// construction — Rejoin, SWIM's refutation and Leave: it takes a's seq as
// the node's, applies a to its own directory and spreads it as news.
// Callers hold n.mu.
func (n *Node) writeOwnRecord(a Advertisement, now time.Time) {
	n.member.adSeq = a.Seq
	n.dir.Apply(a)
	n.spreadAdverts([]Advertisement{a}, "", now)
}

// Rejoin re-announces this node after an outage: it bumps the
// advertisement sequence number past any tombstone or eviction, floods
// the fresh advertisement, and opens an anti-entropy exchange with its
// first neighbor to relearn what changed while it was away. The sim
// cluster calls it from the network's churn hook; a daemon calls it after
// reconnecting.
func (n *Node) Rejoin() {
	n.mu.Lock()
	defer n.mu.Unlock()
	mem := n.member
	if mem == nil {
		return
	}
	sw := mem.swim
	now := n.now()
	clear(mem.lastSync)
	if sw != nil {
		// Probes from before the outage are stale: forget them, so their
		// timeouts find nothing outstanding.
		sw.left = false
		clear(sw.probes)
	}
	if n.desc != nil {
		n.writeOwnRecord(advertisementOf(*n.desc, mem.adSeq+1), now)
	}
	if sw != nil {
		// Relearn what changed while away from a sampled peer, and run an
		// immediate probe round so the fresh advertisement starts spreading.
		n.refreshSampler()
		targets := sw.sampler.Next(sw.fanout)
		if len(targets) > 0 {
			n.maybeSync(targets[0], now)
		}
		for _, target := range targets {
			n.sendProbe(target, now)
		}
		return
	}
	if nbs := n.tr.Neighbors(); len(nbs) > 0 {
		n.maybeSync(nbs[0], now)
	}
}

// Directory returns the node's directory replica.
func (n *Node) Directory() *Directory { return n.dir }

// MembershipEnabled reports whether the live-membership layer is on.
func (n *Node) MembershipEnabled() bool { return n.member != nil }

// selfAddr returns the transport's dialable address, if it has one.
// Callers hold n.mu.
func (n *Node) selfAddr() string {
	if a, ok := n.tr.(transport.Addresser); ok {
		return a.Addr()
	}
	return ""
}

// peerAddrs returns the transport's known peer addresses, if it tracks
// them. Callers hold n.mu.
func (n *Node) peerAddrs() map[string]string {
	if pl, ok := n.tr.(transport.PeerLister); ok {
		return pl.Peers()
	}
	return nil
}
