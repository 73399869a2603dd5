package athena

import (
	"errors"
	"sort"
	"time"

	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
)

// This file implements the live-membership layer (the deployment half of
// the paper's semantic lookup service, refs [8][9]): nodes advertise their
// source streams, flood heartbeats so every replica's failure detector
// hears every live node, evict sources that miss HeartbeatMiss beats,
// re-source in-flight fetches of evicted sources, and reconcile diverged
// directory replicas and label caches with push-pull anti-entropy after a
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
	miss     int               // silent intervals before a source is evicted
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
		mem.flood = &floodProto{miss: cfg.HeartbeatMiss, seenBeat: make(map[string]uint64)}
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
	return last, heard && now.Sub(last) <= time.Duration(mem.flood.miss)*mem.interval
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
	n.m.heartbeats.Inc()

	// Failure detection: a present source (other than us) that has been
	// silent for HeartbeatMiss intervals is evicted. A source we have never
	// heard from gets its grace clock armed now.
	deadline := time.Duration(mem.flood.miss) * mem.interval
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
	n.m.evictions.Inc()
	n.sourceGone(src, desc, had)
}

// sourceGone is what follows the directory dropping a source, evicted or
// withdrawn (tombstone advert, PeerLeave): the detectors forget it, then
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

// reSourceFrom clears in-flight fetches of the given object and marks its
// source suspect on every affected query, then pumps them so the next
// request goes to an alternate covering source
// (SourceForLabelExcluding). Callers hold n.mu.
func (n *Node) reSourceFrom(src, objName string) {
	for q := n.liveAfter(""); q != nil; q = n.liveAfter(q.engine.ID()) {
		if _, ok := q.outstanding[objName]; !ok {
			continue
		}
		delete(q.outstanding, objName)
		q.suspect[src] = true
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
	// The advert and digest examined are the originator's, but the flood
	// protocol syncs with the neighbor that delivered the beat: the full
	// snapshot it pushes then crosses one link, not a route.
	n.checkPeerState(hb.Node, from, hb.AdvSeq, hb.Digest, now)
}

// maybeSync opens a push-pull anti-entropy exchange with a peer,
// rate-limited to one per heartbeat interval per peer. Flood mode pushes
// the full directory snapshot to a neighbor; gossip mode routes a compact
// seq vector to the (possibly distant) peer and each side then ships only
// the records the other's vector is behind on. Callers hold n.mu.
func (n *Node) maybeSync(peer string, now time.Time) {
	mem := n.member
	if last, ok := mem.lastSync[peer]; ok && now.Sub(last) < mem.interval {
		return
	}
	mem.lastSync[peer] = now
	if n.shard != nil {
		// Sharded replicas reconcile only the shards both sides own; the
		// rest of the seq space converges through the piggyback channel.
		// Nothing shared means nothing to exchange (the rate-limit slot
		// still burns, bounding re-checks against this peer).
		shared := n.shard.router.SharedShards(peer)
		if len(shared) == 0 {
			return
		}
		n.stats.SyncExchanges++
		n.m.syncRounds.Inc()
		n.sendShardSync(peer, shared)
		return
	}
	n.stats.SyncExchanges++
	n.m.syncRounds.Inc()
	req := &SyncRequest{From: n.id, To: peer}
	if mem.swim != nil {
		// Gossip-mode sync reconciles the directory only: seq vectors in,
		// deltas out. Label records keep flowing through the retrieval
		// plane (query answers); shipping the full label cache on every
		// digest divergence would dwarf the probe traffic this protocol
		// exists to bound.
		req.Seqs = n.dir.SeqVector(nil)
	} else {
		req.Adverts = n.dir.Snapshot()
		req.Labels = n.labels.Records(now)
	}
	n.sendCtl(peer, req)
}

// handleSyncRequest applies the requester's push half and answers with
// this replica's records — the full snapshot for a flood-mode request,
// or the delta against the requester's seq vector plus this replica's own
// vector for a gossip-mode one. Callers hold n.mu.
func (n *Node) handleSyncRequest(req *SyncRequest) {
	n.applyAdverts(req.Adverts, "")
	n.absorbLabels(req.Labels)
	now := n.now()
	resp := &SyncResponse{From: n.id, To: req.From}
	if len(req.Seqs) > 0 {
		resp.Adverts = n.dir.Delta(req.Seqs, nil)
		resp.Seqs = n.dir.SeqVector(nil)
	} else {
		resp.Adverts = n.dir.Snapshot()
		resp.Labels = n.labels.Records(now)
	}
	n.sendCtl(req.From, resp)
}

// handleSyncResponse applies the pull half and, in gossip mode, pushes
// back whatever the responder's seq vector shows it is still missing —
// closing the exchange with both replicas at the union of their records.
// Callers hold n.mu.
func (n *Node) handleSyncResponse(resp *SyncResponse) {
	n.applyAdverts(resp.Adverts, "")
	n.absorbLabels(resp.Labels)
	n.syncPushBack(resp.From, resp.Seqs, nil)
}

// syncPushBack is the last leg of a seq-vector exchange, scoped or not:
// whatever the responder's vector shows it is still missing within scope
// is routed back to it, so both replicas end at the union of their
// records. A flood-mode response carries no vector and gets no push.
// Callers hold n.mu.
func (n *Node) syncPushBack(to string, seqs map[string]uint64, scope func(object.Descriptor) bool) {
	if len(seqs) == 0 {
		return
	}
	if push := n.dir.Delta(seqs, scope); len(push) > 0 {
		n.sendCtl(to, &AdvertGossip{To: to, Adverts: push})
	}
}

// applyOneAdvert merges one advertisement record into the directory with
// its liveness and re-sourcing side effects, and reports whether it was
// news. Dissemination is the caller's business. Callers hold n.mu.
func (n *Node) applyOneAdvert(a Advertisement, now time.Time) bool {
	if a.Source == n.id {
		return false // we are the authority on our own advertisement
	}
	desc, hadDesc := n.descriptorOf(a.Source)
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
// self-terminates on convergence. Callers hold n.mu.
func (n *Node) applyAdverts(advs []Advertisement, from string) []Advertisement {
	now := n.now()
	var news []Advertisement
	for _, a := range advs {
		if n.applyOneAdvert(a, now) {
			news = append(news, a)
		}
	}
	if len(news) > 0 {
		n.spreadAdverts(news, from, now)
	}
	return news
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

// absorbLabels verifies and caches shared label records from an
// anti-entropy exchange. Callers hold n.mu.
func (n *Node) absorbLabels(recs []trust.Label) {
	for i := range recs {
		rec := recs[i]
		if n.authority.Verify(&rec) == nil {
			n.labels.Put(&rec)
		}
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

// handlePeerLeave tombstones a departing node, re-sources fetches that
// depended on it, and re-floods while the withdraw is news. Callers hold
// n.mu.
func (n *Node) handlePeerLeave(from string, pl *PeerLeave) {
	if pl.Node == n.id {
		return
	}
	desc, had := n.descriptorOf(pl.Node)
	if !n.dir.Withdraw(pl.Node, pl.Seq) {
		return
	}
	n.sourceGone(pl.Node, desc, had)
	if n.member.swim != nil {
		n.enqueuePiggy(MemberUpdate{
			Adv:  Advertisement{Source: pl.Node, Seq: pl.Seq, Withdrawn: true},
			Born: n.now(),
		})
	} else {
		n.floodCtl(pl, from)
	}
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

// Leave floods this node's graceful departure: every replica tombstones
// its advertisement at the current sequence number and re-sources fetches
// that depended on it.
func (n *Node) Leave() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	mem := n.member
	if mem == nil {
		return errMembershipOff
	}
	n.dir.Withdraw(n.id, mem.adSeq)
	if sw := mem.swim; sw != nil {
		// The tombstone rides the piggyback channel; an immediate probe
		// round seeds its dissemination before this node goes quiet.
		sw.left = true
		n.enqueuePiggy(MemberUpdate{
			Adv:  Advertisement{Source: n.id, Seq: mem.adSeq, Withdrawn: true},
			Born: n.now(),
		})
		now := n.now()
		n.refreshSampler()
		for _, target := range sw.sampler.Next(sw.fanout) {
			n.sendProbe(target, now)
		}
	} else {
		n.floodCtl(&PeerLeave{Node: n.id, Seq: mem.adSeq}, "")
	}
	return nil
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
		mem.adSeq++
		n.dir.Advertise(*n.desc, mem.adSeq)
		n.spreadAdverts([]Advertisement{advertisementOf(*n.desc, mem.adSeq)}, "", now)
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
