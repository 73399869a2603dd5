package athena

import (
	"hash/fnv"
	"sort"
	"time"

	"athena/internal/gossip"
)

// This file implements the SWIM-style gossip membership protocol
// (GossipFanout > 0), the scalable alternative to membership.go's flooded
// heartbeats. Each protocol period a node pings GossipFanout members drawn
// from a deterministic round-robin sampler; an unacknowledged probe makes
// the target suspect and is retried indirectly through gossipIndirect
// intermediaries (ping-req); a suspect still silent after suspectPeriods
// intervals is evicted and the eviction notice disseminates epidemically.
// All membership updates — joins, leaves, evictions, refutations — ride
// as bounded piggyback buffers on ping/ack with per-update retransmit
// budgets of λ·⌈log₂(n+1)⌉ transmissions, so the AdvertGossip floods
// (adverts and leave tombstones alike) and the periodic digest sync of the
// flood protocol collapse into the probe channel. Directory divergence
// detected by a probe's digest triggers the seq-vector delta anti-entropy
// exchange both protocols run (see membership.go's maybeSync). Per-node
// control traffic is O(fanout·log n) per period instead of the flood's
// O(n·degree).

// swimProto is what the SWIM protocol keeps beyond the shared membership
// state: who to probe next, which probes and suspicions are open, and the
// updates waiting to ride the next ping or ack.
type swimProto struct {
	fanout     int           // peers probed per protocol period
	suspectTO  time.Duration // probe → eviction window
	sampler    *gossip.Sampler
	samplerVer uint64 // directory version at last ring refresh
	piggy      *gossip.Queue[MemberUpdate]

	// Probes are numbered as sent and every probe's timeout runs the same
	// half period after it, so timeouts fire in the order the probes went
	// out: the k-th timeout is probe k's, and the timer needs no argument
	// beyond the node. (Two wall-clock timers microseconds apart may swap;
	// each then judges the other's probe, that much early or late.)
	probeSeq  uint64                 // probes sent
	timedOut  uint64                 // probe timeouts fired
	probes    map[uint64]*probeState // unanswered probes younger than half a period, by seq
	probeFree *probeState            // recycled probe states

	suspects map[string]time.Time // suspect -> first-suspected instant
	lhm      int                  // Lifeguard-style local health multiplier
	left     bool                 // this node issued a graceful Leave

	pickExcl    map[string]bool // scratch exclude set for sampler.Pick
	peerScratch []string        // refreshSampler's peer-list scratch
}

func newSwim(cfg Config) *swimProto {
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	return &swimProto{
		fanout:     cfg.GossipFanout,
		suspectTO:  suspectPeriods * cfg.HeartbeatInterval,
		sampler:    gossip.NewSampler(cfg.GossipSeed ^ int64(h.Sum64())),
		samplerVer: ^uint64(0),
		piggy:      gossip.NewQueue[MemberUpdate](),
		probes:     make(map[uint64]*probeState),
		suspects:   make(map[string]time.Time),
		pickExcl:   make(map[string]bool, 2),
	}
}

// probeState is one outstanding direct probe (and a freelist link).
type probeState struct {
	target  string
	started time.Time
	next    *probeState
}

// openProbe numbers and records a probe of target.
func (sw *swimProto) openProbe(target string, started time.Time) (seq uint64) {
	ps := sw.probeFree
	if ps == nil {
		ps = new(probeState)
	} else {
		sw.probeFree = ps.next
	}
	*ps = probeState{target: target, started: started}
	sw.probeSeq++
	sw.probes[sw.probeSeq] = ps
	return sw.probeSeq
}

// closeProbe forgets probe seq, answered or timed out, and recycles its
// state ps.
func (sw *swimProto) closeProbe(seq uint64, ps *probeState) {
	delete(sw.probes, seq)
	*ps = probeState{next: sw.probeFree}
	sw.probeFree = ps
}

// unsuspect clears any suspicion of src: it was heard from, or news of it
// arrived. Flood mode has no suspects.
func (mem *membership) unsuspect(src string) {
	if mem.swim != nil {
		delete(mem.swim.suspects, src)
	}
}

// contact records a frame from src itself: alive as of now, whatever an
// unanswered probe suggested.
func (mem *membership) contact(src string, now time.Time) {
	mem.lastHeard[src] = now
	delete(mem.swim.suspects, src)
}

// gossipTick runs one SWIM protocol period — sweep the suspect list,
// probe the sampled peers plus every live suspect. Callers hold n.mu.
func (n *Node) gossipTick() {
	sw := n.member.swim
	now := n.now()
	n.sweepSuspects(now)
	n.refreshSampler()
	n.shardRefresh()
	targets := sw.sampler.Next(sw.fanout)
	for _, target := range targets {
		n.sendProbe(target, now)
	}
	// Suspects are re-probed every period on top of the sampled fanout:
	// each period is another chance for a slow ack to clear the suspicion
	// before the timeout expires. The common tick has no suspects, so the
	// dedup set is only built when there is something to dedup against.
	if len(sw.suspects) > 0 {
		probed := make(map[string]bool, len(targets))
		for _, t := range targets {
			probed[t] = true
		}
		for _, target := range sortedKeys(sw.suspects) {
			if !probed[target] {
				n.sendProbe(target, now)
			}
		}
	}
}

// lhmMax caps the local health multiplier: the suspicion window dilates
// at most (1+lhmMax)-fold when every probe is timing out.
const lhmMax = 8

// sweepSuspects clears suspicions answered since they were raised and
// evicts suspects that stayed silent through the whole suspicion window,
// disseminating each eviction as a piggybacked death notice. The window
// is suspectPeriods intervals dilated by the local health multiplier:
// when this node's probes are failing across the board the problem is
// local (its links, or fleet-wide congestion), so eviction verdicts wait;
// when only the suspect is silent while other acks flow, lhm sits at zero
// and detection stays fast. Callers hold n.mu.
func (n *Node) sweepSuspects(now time.Time) {
	sw := n.member.swim
	window := time.Duration(1+sw.lhm) * sw.suspectTO
	for _, target := range sortedKeys(sw.suspects) {
		since := sw.suspects[target]
		if last, heard := n.member.lastHeard[target]; heard && !last.Before(since) {
			delete(sw.suspects, target)
			continue
		}
		if !n.dir.Has(target) {
			delete(sw.suspects, target)
			continue
		}
		if now.Sub(since) < window {
			continue
		}
		delete(sw.suspects, target)
		deadSeq, _, _ := n.dir.Known(target)
		n.evictSource(target)
		n.enqueuePiggy(MemberUpdate{
			Adv:  Advertisement{Source: target, Seq: deadSeq},
			Dead: true,
			Born: now,
		})
	}
}

// sortedKeys returns the map's keys in sorted order, so iteration stays
// deterministic under the simulator.
func sortedKeys(m map[string]time.Time) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refreshSampler rebuilds the sampling ring from the directory's present
// sources when the directory changed since the last refresh. Callers hold
// n.mu.
func (n *Node) refreshSampler() {
	mem, sw := n.member, n.member.swim
	v := n.dir.Version()
	if v == sw.samplerVer {
		return
	}
	sw.samplerVer = v
	sources := n.dir.Sources()
	// First refresh with the directory populated: re-make lastHeard sized
	// for the fleet, so the per-contact bookkeeping writes never rehash.
	if len(mem.lastHeard) == 0 && len(sources) > 1 {
		mem.lastHeard = make(map[string]time.Time, 2*len(sources))
	}
	peers := sw.peerScratch[:0]
	for _, s := range sources {
		if s != n.id {
			peers = append(peers, s)
		}
	}
	sw.peerScratch = peers
	sw.sampler.SetPeers(peers)
}

// sendProbe opens one direct probe of target and arms the suspicion
// machinery: no ack within half a period → indirect ping-req through
// intermediaries; still nothing heard from the target for
// suspectPeriods intervals → eviction. Callers hold n.mu.
func (n *Node) sendProbe(target string, now time.Time) {
	if target == n.id {
		return
	}
	mem, sw := n.member, n.member.swim
	seq := sw.openProbe(target, now)
	n.stats.PingsSent++
	n.sendCtl(target, &Ping{
		From:    n.id,
		To:      target,
		Seq:     seq,
		AdvSeq:  mem.adSeq,
		Digest:  n.digestFor(target),
		Updates: sw.takePiggy(),
	})
	n.timers.AfterArg(mem.interval/2, probeTimeout, n)
}

// probeTimeout fires half a period after a direct probe (arg is the node;
// which probe, swimProto says): if the probe is still outstanding the
// target becomes suspect and the indirect ping-req round starts.
func probeTimeout(arg any) {
	n := arg.(*Node)
	n.mu.Lock()
	defer n.mu.Unlock()
	mem, sw := n.member, n.member.swim
	sw.timedOut++
	seq := sw.timedOut
	pr, outstanding := sw.probes[seq]
	if !outstanding {
		return // acked in time
	}
	target, started := pr.target, pr.started
	sw.closeProbe(seq, pr) // the probe failed; the indirect round takes over
	if last, heard := mem.lastHeard[target]; heard && !last.Before(started) {
		return // heard from it through other traffic since the probe
	}
	if _, already := sw.suspects[target]; !already {
		sw.suspects[target] = started
		n.stats.Suspicions++
		// A fresh failed probe is evidence this node's own view of the
		// network is degraded (congestion, or its own links): stretch
		// the suspicion window (Lifeguard's local health multiplier).
		if sw.lhm < lhmMax {
			sw.lhm++
		}
	}
	clear(sw.pickExcl)
	sw.pickExcl[target] = true
	for _, mid := range sw.sampler.Pick(gossipIndirect, sw.pickExcl) {
		n.stats.PingsSent++
		n.sendCtl(mid, &PingReq{From: n.id, To: mid, Target: target, Seq: seq, Updates: sw.takePiggy()})
	}
}

// handlePing answers a probe, merging the piggybacked updates and running
// the advert/digest divergence check. Callers hold n.mu.
func (n *Node) handlePing(p *Ping) {
	now := n.now()
	n.member.contact(p.From, now)
	n.applyUpdates(p.Updates, now)
	// Direct probes ack to the prober; relayed probes (ping-req) ack
	// straight to the original prober under its own probe sequence.
	dest, seq := p.From, p.Seq
	if p.OnBehalf != "" {
		dest, seq = p.OnBehalf, p.OnBehalfSeq
	}
	if dest != n.id {
		n.sendAck(dest, seq)
	}
	n.checkPeerState(p.From, p.From, p.AdvSeq, p.Digest, now)
}

// sendAck answers probe seq of dest with this node's advert seq, digest
// and a piggyback load. Callers hold n.mu.
func (n *Node) sendAck(dest string, seq uint64) {
	mem := n.member
	n.sendCtl(dest, &Ack{From: n.id, To: dest, Seq: seq, AdvSeq: mem.adSeq, Digest: n.digestFor(dest), Updates: mem.swim.takePiggy()})
}

// handleAck closes the matching outstanding probe and merges the
// responder's piggybacked state. Callers hold n.mu.
func (n *Node) handleAck(a *Ack) {
	mem, sw := n.member, n.member.swim
	now := n.now()
	mem.contact(a.From, now)
	if pr, ok := sw.probes[a.Seq]; ok && pr.target == a.From {
		sw.closeProbe(a.Seq, pr)
		if sw.lhm > 0 {
			sw.lhm-- // a timely ack is evidence the local view is healthy
		}
	}
	n.applyUpdates(a.Updates, now)
	n.checkPeerState(a.From, a.From, a.AdvSeq, a.Digest, now)
}

// handlePingReq relays an indirect probe: ping the suspect on the
// requester's behalf, with the suspect acking the requester directly.
// Callers hold n.mu.
func (n *Node) handlePingReq(pr *PingReq) {
	mem, sw := n.member, n.member.swim
	now := n.now()
	mem.contact(pr.From, now)
	n.applyUpdates(pr.Updates, now)
	if pr.Target == n.id {
		// We are the suspect: answer directly.
		n.sendAck(pr.From, pr.Seq)
		return
	}
	n.stats.PingsSent++
	n.sendCtl(pr.Target, &Ping{
		From:        n.id,
		To:          pr.Target,
		AdvSeq:      mem.adSeq,
		Digest:      n.digestFor(pr.Target),
		OnBehalf:    pr.From,
		OnBehalfSeq: pr.Seq,
		Updates:     sw.takePiggy(),
	})
}

// applyUpdates merges piggybacked membership events: adverts and
// tombstones go through the directory with the usual re-sourcing side
// effects, eviction notices evict (when not already superseded), news
// about this node itself is refuted with a bumped advertisement (SWIM's
// incarnation, with the advert seq as incarnation number), and whatever
// was news is re-enqueued so it keeps spreading epidemically. An update
// whose seq no record may take is refused first, so a refutation always
// has a seq past its notice. Callers hold n.mu.
func (n *Node) applyUpdates(ups []MemberUpdate, now time.Time) {
	mem, sw := n.member, n.member.swim
	for _, u := range ups {
		if n.refuseSeq(u.Adv.Seq, u.Dead || u.Adv.Withdrawn) {
			continue
		}
		if u.Adv.Source == n.id {
			if (u.Dead || u.Adv.Withdrawn) && !sw.left && n.desc != nil && u.Adv.Seq >= mem.adSeq {
				n.stats.Refutations++
				n.writeOwnRecord(advertisementOf(*n.desc, u.Adv.Seq+1), now)
			}
			continue
		}
		if u.Dead {
			seq, present, _ := n.dir.Known(u.Adv.Source)
			if present && seq <= u.Adv.Seq {
				delete(sw.suspects, u.Adv.Source)
				n.evictSource(u.Adv.Source)
				n.enqueuePiggy(u)
				n.observeConvergence(u.Born, now)
			}
			continue
		}
		if n.applyOneAdvert(u.Adv, now) {
			n.enqueuePiggy(u)
			n.observeConvergence(u.Born, now)
		}
	}
}

// checkPeerState triggers anti-entropy with syncWith when a probe or
// heartbeat from peer reveals an advertisement this replica is missing or
// a diverged directory — the one divergence rule of both protocols. Gossip
// syncs with the peer itself; the flood with whichever neighbor delivered
// the beat. Callers hold n.mu.
func (n *Node) checkPeerState(peer, syncWith string, advSeq, digest uint64, now time.Time) {
	needSync := false
	if advSeq > 0 {
		// A live node advertises a source we do not list: either we missed
		// the advertisement or we evicted it (a false positive, or a healed
		// partition). A withdrawn tombstone at or past advSeq means it left
		// on purpose and this probe is stale — no sync for that.
		seq, present, withdrawn := n.dir.Known(peer)
		if !present && (advSeq > seq || !withdrawn) {
			needSync = true
		}
	}
	if digest != n.digestFor(peer) {
		needSync = true
	}
	if needSync {
		n.maybeSync(syncWith, now)
	}
}

// digestFor is the directory digest this node exchanges with peer: the
// whole directory's (Directory.Digest) on a full replica, and on a sharded
// one only what a scoped exchange with peer can reconcile
// (ShardRouter.Digest) — the piggyback converges the rest of the seq
// space. Callers hold n.mu.
func (n *Node) digestFor(peer string) uint64 {
	if n.shard == nil {
		return n.dir.Digest()
	}
	return n.shard.router.Digest(peer, n.dir)
}

// enqueuePiggy adds a membership update to the piggyback buffer with a
// fresh λ·⌈log₂(n+1)⌉ retransmit budget (n = every source the directory
// has a record of). Per-source rank ordering makes newer protocol states
// supersede queued older ones. Callers hold n.mu.
func (n *Node) enqueuePiggy(u MemberUpdate) {
	n.member.swim.piggy.Put(u.Adv.Source, updateRank(u), u, gossip.Budget(gossipRetransmit, n.dir.Records()))
}

// updateRank orders piggyback updates about the same source: higher
// sequence numbers win; at equal seq a withdraw (the source's own word)
// beats an eviction notice (a detector's suspicion) beats a plain advert.
func updateRank(u MemberUpdate) uint64 {
	r := u.Adv.Seq << 2
	if u.Dead {
		r |= 1
	}
	if u.Adv.Withdrawn {
		r |= 2
	}
	return r
}

// takePiggy drains up to the per-message piggyback cap from the buffer,
// into a slice the outgoing frame owns.
func (sw *swimProto) takePiggy() []MemberUpdate {
	return sw.piggy.Take(gossipMaxPiggyback)
}

// observeConvergence records how long a membership update took to reach
// this replica, measured from its origination stamp — meaningful under
// the simulator's shared virtual clock; best-effort over TCP. Callers
// hold n.mu.
func (n *Node) observeConvergence(born, now time.Time) {
	if born.IsZero() {
		return
	}
	if d := now.Sub(born); d >= 0 {
		n.m.convergence.ObserveDuration(d)
	}
}

// accountCtl charges one membership control message to the node's
// control-plane counters — the common currency flood and gossip mode are
// compared in. Callers hold n.mu.
func (n *Node) accountCtl(size int64) {
	n.stats.ControlMsgs++
	n.stats.ControlBytes += size
}

// sendCtl routes a membership control message toward dest, accounting its
// cost. In gossip mode control messages ride the preferential class
// (Section V-C): probe latency is the failure detector's clock, and the
// messages are small and bounded (piggyback cap, seq-vector deltas), so
// letting them jump queued bulk object transfers keeps detection timing
// honest under congestion without starving data. Flood-mode control stays
// in the default class, exactly as before this protocol existed. Callers
// hold n.mu.
func (n *Node) sendCtl(dest string, msg frame) {
	size := msg.WireSize()
	n.accountCtl(size)
	priority := 0
	if n.member.swim != nil {
		priority = 1
	}
	n.route(dest, msg, size, priority)
}
