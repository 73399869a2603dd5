package athena

import (
	"sort"
	"time"

	"athena/internal/gossip"
)

// This file implements the SWIM-style gossip membership protocol
// (GossipFanout > 0), the scalable alternative to membership.go's flooded
// heartbeats. Each protocol period a node pings GossipFanout members drawn
// from a deterministic round-robin sampler; an unacknowledged probe makes
// the target suspect and is retried indirectly through gossipIndirect
// intermediaries (ping-req); a suspect still silent after SuspectTimeout
// is evicted and the eviction notice disseminates epidemically. All
// membership updates — joins, leaves, evictions, refutations — ride as
// bounded piggyback buffers on ping/ack with per-update retransmit
// budgets of λ·⌈log₂(n+1)⌉ transmissions, so the AdvertGossip/PeerLeave
// floods and the periodic digest sync of the flood protocol collapse into
// the probe channel. Directory divergence detected by a probe's digest
// triggers a seq-vector delta anti-entropy exchange (see membership.go's
// maybeSync) instead of a full-snapshot push. Per-node control traffic is
// O(fanout·log n) per period instead of the flood's O(n·degree).

// probeState tracks one outstanding direct probe. It carries its own seq
// so the state value can double as the timeout timer's argument, and a
// freelist link: the timer is the last holder of every probe state, so
// probeTimeout can recycle them through the node's freelist.
type probeState struct {
	target  string
	started time.Time
	seq     uint64
	next    *probeState
}

// newProbe takes a probe state off the freelist (or allocates one).
// Callers hold n.mu.
func (n *Node) newProbe(target string, started time.Time, seq uint64) *probeState {
	ps := n.probeFree
	if ps == nil {
		return &probeState{target: target, started: started, seq: seq}
	}
	n.probeFree = ps.next
	*ps = probeState{target: target, started: started, seq: seq}
	return ps
}

// freeProbe returns a probe state to the freelist. Only probeTimeout may
// call it: the timeout timer always fires and is always the last holder.
func (n *Node) freeProbe(ps *probeState) {
	*ps = probeState{next: n.probeFree}
	n.probeFree = ps
}

// gossipTickArg adapts gossipTick to the Timers.AfterArg shape; it is
// bound once in New (n.gossipTickFn) so re-arming each protocol period
// allocates nothing.
func (n *Node) gossipTickArg(any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gossipTick()
}

// gossipTick runs one SWIM protocol period — sweep the suspect list,
// probe the sampled peers plus every live suspect — and re-arms itself.
// Callers hold n.mu.
func (n *Node) gossipTick() {
	now := n.now()
	n.beatSeq++
	n.sweepSuspects(now)
	n.refreshSampler()
	n.shardRefresh()
	targets := n.sampler.Next(n.fanout)
	for _, target := range targets {
		n.sendProbe(target, now)
	}
	// Suspects are re-probed every period on top of the sampled fanout:
	// each period is another chance for a slow ack to clear the suspicion
	// before the timeout expires. The common tick has no suspects, so the
	// dedup set is only built when there is something to dedup against.
	if len(n.suspects) > 0 {
		probed := make(map[string]bool, len(targets))
		for _, t := range targets {
			probed[t] = true
		}
		for _, target := range sortedKeys(n.suspects) {
			if !probed[target] {
				n.sendProbe(target, now)
			}
		}
	}
	n.timers.AfterArg(n.hbInterval, n.gossipTickFn, nil)
}

// lhmMax caps the local health multiplier: the suspicion window dilates
// at most (1+lhmMax)-fold when every probe is timing out.
const lhmMax = 8

// sweepSuspects clears suspicions answered since they were raised and
// evicts suspects that stayed silent through the whole suspicion window,
// disseminating each eviction as a piggybacked death notice. The window
// is SuspectTimeout dilated by the local health multiplier: when this
// node's probes are failing across the board the problem is local (its
// links, or fleet-wide congestion), so eviction verdicts wait; when only
// the suspect is silent while other acks flow, lhm sits at zero and
// detection stays fast. Callers hold n.mu.
func (n *Node) sweepSuspects(now time.Time) {
	window := time.Duration(1+n.lhm) * n.suspectTO
	for _, target := range sortedKeys(n.suspects) {
		since := n.suspects[target]
		if last, heard := n.lastHeard[target]; heard && !last.Before(since) {
			delete(n.suspects, target)
			continue
		}
		if !n.dir.Has(target) {
			delete(n.suspects, target)
			continue
		}
		if now.Sub(since) < window {
			continue
		}
		delete(n.suspects, target)
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
	v := n.dir.Version()
	if v == n.samplerVer {
		return
	}
	n.samplerVer = v
	sources := n.dir.Sources()
	// First refresh with the directory populated: re-make lastHeard sized
	// for the fleet, so the per-contact bookkeeping writes never rehash.
	if len(n.lastHeard) == 0 && len(sources) > 1 {
		n.lastHeard = make(map[string]time.Time, 2*len(sources))
	}
	peers := n.peerScratch[:0]
	for _, s := range sources {
		if s != n.id {
			peers = append(peers, s)
		}
	}
	n.peerScratch = peers
	n.sampler.SetPeers(peers)
}

// sendProbe opens one direct probe of target and arms the suspicion
// machinery: no ack within half a period → indirect ping-req through
// intermediaries; still nothing heard from the target by SuspectTimeout →
// eviction. Callers hold n.mu.
func (n *Node) sendProbe(target string, now time.Time) {
	if target == n.id {
		return
	}
	n.probeSeq++
	seq := n.probeSeq
	p := &Ping{
		From:    n.id,
		To:      target,
		Seq:     seq,
		AdvSeq:  n.adSeq,
		Digest:  n.dir.Digest(),
		Updates: n.takePiggy(),
	}
	n.stats.PingsSent++
	n.m.pings.Inc()
	n.sendCtl(target, p.WireSize(), p)
	ps := n.newProbe(target, now, seq)
	n.probes[seq] = ps

	// The probe state itself rides as the timer argument: the timeout
	// path allocates no closure (n.probeTimeoutFn is bound once in New).
	n.timers.AfterArg(n.hbInterval/2, n.probeTimeoutFn, ps)
}

// probeTimeout fires half a period after a direct probe: if the probe is
// still outstanding the target becomes suspect and the indirect ping-req
// round starts. arg is the *probeState registered by sendProbe.
func (n *Node) probeTimeout(arg any) {
	ps, ok := arg.(*probeState)
	if !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.freeProbe(ps) // the timer was the last holder
	pr, ok := n.probes[ps.seq]
	if !ok || pr != ps {
		return // acked in time
	}
	delete(n.probes, ps.seq) // the probe failed; indirect round takes over
	if last, heard := n.lastHeard[pr.target]; heard && !last.Before(pr.started) {
		return // heard from it through other traffic since the probe
	}
	if _, already := n.suspects[pr.target]; !already {
		n.suspects[pr.target] = pr.started
		n.stats.Suspicions++
		n.m.suspicions.Inc()
		// A fresh failed probe is evidence this node's own view of the
		// network is degraded (congestion, or its own links): stretch
		// the suspicion window (Lifeguard's local health multiplier).
		if n.lhm < lhmMax {
			n.lhm++
		}
	}
	if n.pickExcl == nil {
		n.pickExcl = make(map[string]bool, 2)
	}
	clear(n.pickExcl)
	n.pickExcl[pr.target] = true
	for _, mid := range n.sampler.Pick(gossipIndirect, n.pickExcl) {
		preq := &PingReq{From: n.id, To: mid, Target: pr.target, Seq: ps.seq, Updates: n.takePiggy()}
		n.stats.PingsSent++
		n.m.pings.Inc()
		n.sendCtl(mid, preq.WireSize(), preq)
	}
}

// handlePing answers a probe (forwarding it first if this node is only a
// hop on its route), merging the piggybacked updates and running the
// advert/digest divergence check. Callers hold n.mu.
func (n *Node) handlePing(from string, p *Ping) {
	if !n.memberOn || !n.gossipOn || p.From == n.id {
		return
	}
	if p.To != n.id {
		n.sendCtl(p.To, p.WireSize(), p)
		return
	}
	now := n.now()
	n.lastHeard[p.From] = now
	delete(n.suspects, p.From)
	n.applyUpdates(p.Updates, now)
	// Direct probes ack to the prober; relayed probes (ping-req) ack
	// straight to the original prober under its own probe sequence.
	dest, seq := p.From, p.Seq
	if p.OnBehalf != "" {
		dest, seq = p.OnBehalf, p.OnBehalfSeq
	}
	if dest != n.id {
		ack := &Ack{
			From:    n.id,
			To:      dest,
			Seq:     seq,
			AdvSeq:  n.adSeq,
			Digest:  n.dir.Digest(),
			Updates: n.takePiggy(),
		}
		n.sendCtl(dest, ack.WireSize(), ack)
	}
	n.checkPeerState(p.From, p.From, p.AdvSeq, p.Digest, now)
}

// handleAck closes the matching outstanding probe and merges the
// responder's piggybacked state. Callers hold n.mu.
func (n *Node) handleAck(from string, a *Ack) {
	if !n.memberOn || !n.gossipOn || a.From == n.id {
		return
	}
	if a.To != n.id {
		n.sendCtl(a.To, a.WireSize(), a)
		return
	}
	now := n.now()
	n.lastHeard[a.From] = now
	delete(n.suspects, a.From)
	if pr, ok := n.probes[a.Seq]; ok && pr.target == a.From {
		delete(n.probes, a.Seq)
		if n.lhm > 0 {
			n.lhm-- // a timely ack is evidence the local view is healthy
		}
	}
	n.applyUpdates(a.Updates, now)
	n.checkPeerState(a.From, a.From, a.AdvSeq, a.Digest, now)
}

// handlePingReq relays an indirect probe: ping the suspect on the
// requester's behalf, with the suspect acking the requester directly.
// Callers hold n.mu.
func (n *Node) handlePingReq(from string, pr *PingReq) {
	if !n.memberOn || !n.gossipOn || pr.From == n.id {
		return
	}
	if pr.To != n.id {
		n.sendCtl(pr.To, pr.WireSize(), pr)
		return
	}
	now := n.now()
	n.lastHeard[pr.From] = now
	delete(n.suspects, pr.From)
	n.applyUpdates(pr.Updates, now)
	if pr.Target == n.id {
		// We are the suspect: answer directly.
		ack := &Ack{From: n.id, To: pr.From, Seq: pr.Seq, AdvSeq: n.adSeq, Digest: n.dir.Digest(), Updates: n.takePiggy()}
		n.sendCtl(pr.From, ack.WireSize(), ack)
		return
	}
	relay := &Ping{
		From:        n.id,
		To:          pr.Target,
		AdvSeq:      n.adSeq,
		Digest:      n.dir.Digest(),
		OnBehalf:    pr.From,
		OnBehalfSeq: pr.Seq,
		Updates:     n.takePiggy(),
	}
	n.stats.PingsSent++
	n.m.pings.Inc()
	n.sendCtl(pr.Target, relay.WireSize(), relay)
}

// applyUpdates merges piggybacked membership events: adverts and
// tombstones go through the directory with the usual re-sourcing side
// effects, eviction notices evict (when not already superseded), news
// about this node itself is refuted with a bumped advertisement (SWIM's
// incarnation, with the advert seq as incarnation number), and whatever
// was news is re-enqueued so it keeps spreading epidemically. Callers
// hold n.mu.
func (n *Node) applyUpdates(ups []MemberUpdate, now time.Time) {
	for _, u := range ups {
		if u.Adv.Source == n.id {
			if (u.Dead || u.Adv.Withdrawn) && !n.left && n.desc != nil && u.Adv.Seq >= n.adSeq {
				n.adSeq = u.Adv.Seq + 1
				n.dir.Advertise(*n.desc, n.adSeq)
				n.stats.Refutations++
				n.m.refutes.Inc()
				n.enqueuePiggy(MemberUpdate{Adv: advertisementOf(*n.desc, n.adSeq), Born: now})
			}
			continue
		}
		if u.Dead {
			seq, present, _ := n.dir.Known(u.Adv.Source)
			if present && seq <= u.Adv.Seq {
				delete(n.suspects, u.Adv.Source)
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
	if digest != n.dir.Digest() {
		needSync = true
	}
	if needSync {
		n.maybeSync(syncWith, now)
	}
}

// enqueuePiggy adds a membership update to the piggyback buffer with a
// fresh λ·⌈log₂(n+1)⌉ retransmit budget (n = every source the directory
// knows of). Per-source rank ordering makes newer protocol states
// supersede queued older ones. Callers hold n.mu.
func (n *Node) enqueuePiggy(u MemberUpdate) {
	n.piggy.Put(u.Adv.Source, updateRank(u), u, gossip.Budget(gossipRetransmit, len(n.dir.AllSources())))
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

// takePiggy drains up to the per-message piggyback cap from the buffer.
// Callers hold n.mu.
func (n *Node) takePiggy() []MemberUpdate {
	items := n.piggy.Take(gossipMaxPiggyback)
	if len(items) == 0 {
		return nil
	}
	out := make([]MemberUpdate, len(items))
	for i, it := range items {
		out[i] = it.(MemberUpdate)
	}
	return out
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
	n.m.ctlMsgs.Inc()
	n.m.ctlBytes.Add(size)
}

// sendCtl routes a membership control message toward dest, accounting its
// cost. In gossip mode control messages ride the preferential class
// (Section V-C): probe latency is the failure detector's clock, and the
// messages are small and bounded (piggyback cap, seq-vector deltas), so
// letting them jump queued bulk object transfers keeps detection timing
// honest under congestion without starving data. Flood-mode control stays
// in the default class, exactly as before this protocol existed. Callers
// hold n.mu.
func (n *Node) sendCtl(dest string, size int64, payload any) {
	n.accountCtl(size)
	if n.gossipOn {
		n.sendToPri(dest, size, payload, 1)
	} else {
		n.sendTo(dest, size, payload)
	}
}
