package athena

import (
	"cmp"
	"slices"
	"time"

	"athena/internal/cache"
	"athena/internal/core"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/trace"
	"athena/internal/transport"
	"athena/internal/trust"
)

// handleMessage is the transport receive entry point.
func (n *Node) handleMessage(from string, size int64, payload any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Everything this frame's handlers coalesced in response ships when
	// the dispatch ends (the Nagle push) — a batched arrival's fan-out
	// re-batches on the way out without waiting out a window.
	defer n.flushBursts()
	// Payloads are pointers end to end — sent as pointers, decoded as
	// pointers by internal/wire — so a multi-hop forward re-sends the
	// same allocation instead of re-boxing a struct copy per hop.
	// Handlers that mutate a message before forwarding copy it first.
	mem := n.member
	swim := mem != nil && mem.swim != nil
	switch msg := payload.(type) {
	case *ObjectRequest:
		n.handleRequest(from, msg)
	case *ObjectData:
		n.handleData(from, msg)
	case *RequestBatch:
		// Unpack a coalesced frame and run every member through the
		// ordinary handler: interest fan-out, forwarding, and (at the
		// next hop) re-coalescing all happen per member.
		for i := range msg.Requests {
			n.handleRequest(from, &msg.Requests[i])
		}
	case *DataBatch:
		for i := range msg.Items {
			n.handleData(from, &msg.Items[i])
		}
	case *LabelShare:
		n.handleLabelShare(from, msg)
	// The 11 membership and shard frames. Each belongs to one component
	// and is dropped, unforwarded, by a node where that component is off
	// (nil); a routed one is handled only by its addressee (mine). The
	// handlers below this switch assume both.
	case *Heartbeat:
		if mem != nil && mem.flood != nil {
			n.handleHeartbeat(from, msg)
		}
	case *PeerJoin:
		if mem != nil {
			n.handlePeerJoin(from, msg)
		}
	case *PeerJoinAck:
		if mem != nil {
			n.handlePeerJoinAck(msg)
		}
	// Anti-entropy: routed in gossip mode; the flood's copies carry no To
	// and are for whichever neighbor receives them.
	case *AdvertGossip:
		if mem != nil && (msg.To == "" || n.mine(msg.To, msg)) {
			n.applyAdverts(msg.Adverts, from)
		}
	case *SyncRequest:
		if n.takesSync(msg.Shards, msg.To, msg) {
			n.handleSyncRequest(msg)
		}
	case *SyncResponse:
		if n.takesSync(msg.Shards, msg.To, msg) {
			n.handleSyncResponse(msg)
		}
	// SWIM probes: one of this node's own come back round a routing loop
	// is dropped before it can be forwarded again.
	case *Ping:
		if swim && msg.From != n.id && n.mine(msg.To, msg) {
			n.handlePing(msg)
		}
	case *Ack:
		if swim && msg.From != n.id && n.mine(msg.To, msg) {
			n.handleAck(msg)
		}
	case *PingReq:
		if swim && msg.From != n.id && n.mine(msg.To, msg) {
			n.handlePingReq(msg)
		}
	case *ShardLookup:
		if n.shard != nil && n.mine(msg.To, msg) {
			n.handleShardLookup(msg)
		}
	case *ShardLookupReply:
		if n.shard != nil && n.mine(msg.To, msg) {
			n.handleShardLookupReply(msg)
		}
	}
}

// takesSync is the dispatch rule of a Sync frame. A scoped one (shards
// set) is the sharded directory's, and is dropped unforwarded where
// sharding is off, as a ShardLookup is; an unscoped one is membership's,
// and a flood copy of it carries no To. Callers hold n.mu.
func (n *Node) takesSync(shards []uint32, to string, msg frame) bool {
	if len(shards) > 0 {
		return n.shard != nil && n.mine(to, msg)
	}
	return n.member != nil && (to == "" || n.mine(to, msg))
}

// mine reports whether a routed control frame is addressed to this node;
// one that is not is forwarded a hop toward its addressee, as control
// traffic. The only place a frame's To meets n.id. Callers hold n.mu.
func (n *Node) mine(to string, msg frame) bool {
	if to == n.id {
		return true
	}
	n.sendCtl(to, msg)
	return false
}

// frame is any message the node sends. What it costs on the wire is the
// frame's own to say, so a send helper takes the frame alone and a call
// site cannot price one message with another's size; below the helpers
// the size, read once per frame (once per flood), travels with it to
// transmit.
type frame interface{ WireSize() int64 }

// sendTo routes a message toward dest via the next hop, accounting for
// routing failures. Callers hold n.mu.
func (n *Node) sendTo(dest string, msg frame) {
	n.route(dest, msg, msg.WireSize(), 0)
}

func (n *Node) route(dest string, msg frame, size int64, priority int) {
	if dest == n.id {
		return
	}
	hop, err := n.router.NextHop(n.id, dest)
	if err != nil {
		n.stats.RoutingDrops++
		return
	}
	n.toNeighbor(hop, msg, size, priority)
}

// toNeighbor hands a frame to a direct neighbor's link. With batching on,
// default-priority data-plane traffic may coalesce with other messages
// headed for the same neighbor (coalesce.go); everything else — and
// everything when batching is off — ships in its own frame. Callers hold
// n.mu.
func (n *Node) toNeighbor(hop string, msg frame, size int64, priority int) {
	if n.coalesce == nil || priority != 0 || !n.enqueue(hop, msg) {
		n.ship(hop, msg, size, priority)
	}
}

// ship transmits, counting a failure as a routing drop. Callers hold n.mu.
func (n *Node) ship(neighbor string, msg frame, size int64, priority int) {
	if err := n.transmit(neighbor, msg, size, priority); err != nil {
		n.stats.RoutingDrops++
	}
}

// transmit puts one frame on the transport, for a direct neighbor — the
// only place the node does — using the priority class when the transport
// supports one (Section V-C). Callers hold n.mu.
func (n *Node) transmit(neighbor string, msg frame, size int64, priority int) error {
	switch msg.(type) {
	case *ObjectRequest, *ObjectData, *RequestBatch, *DataBatch:
		n.stats.DataFrames++
	}
	n.traceSend(neighbor, msg)
	if priority > 0 {
		if ps, ok := n.tr.(transport.PrioritySender); ok {
			return ps.SendPriority(neighbor, size, priority, msg)
		}
	}
	return n.tr.Send(neighbor, size, msg)
}

// isCritical reports whether an object name falls in the critical part of
// the name space (Section V-C).
func (n *Node) isCritical(objName string) bool {
	if n.criticalPrefix.IsZero() {
		return false
	}
	name, err := names.Parse(objName)
	if err != nil {
		return false
	}
	return name.HasPrefix(n.criticalPrefix)
}

// dropLapsed deletes the entries of m whose instant has come, once m holds
// more than limit.
func dropLapsed[K comparable](m map[K]time.Time, limit int, now time.Time) {
	if len(m) <= limit {
		return
	}
	for k, until := range m {
		if !now.Before(until) {
			delete(m, k)
		}
	}
}

// handleRequest implements Request_Recv (Section VI-B): answer from the
// label cache (lvfl) or content store, sample if this node is the source,
// otherwise bookmark interest and forward fetches toward the source.
func (n *Node) handleRequest(from string, req *ObjectRequest) {
	now := n.now()

	// Label-cache answer: if label sharing is on and fresh records cover
	// everything the requester wants, reply with records instead of the
	// object — "several orders of magnitude resource savings".
	if n.choices.shareLabels && len(req.Labels) > 0 {
		// Most requests a node sees are not covered: the records are
		// copied out only once every label is.
		var found [8]*trust.Label
		recs := found[:0]
		covered := true
		for _, l := range req.Labels {
			rec, ok := n.labelCache().Get(l, trust.TrustAll(), now)
			if !ok {
				covered = false
				break
			}
			recs = append(recs, rec)
		}
		if covered {
			records := make([]trust.Label, len(recs))
			for i, rec := range recs {
				if n.audit != nil {
					n.audit.served(rec, now)
				}
				records[i] = *rec
			}
			n.stats.LabelAnswers++
			n.trace.Event(n.id, req.QueryID, trace.Answer, now, "label")
			n.sendTo(req.Origin, &LabelShare{Records: records, Dest: req.Origin, QueryID: req.QueryID})
			return
		}
	}

	// Content-store answer, returned along the reverse path.
	if name, err := names.Parse(req.Object); err == nil {
		if obj, ok := n.store.Get(name, now); ok {
			if n.duplicateInFlight(req.Object, from, obj.Size, now) {
				return
			}
			n.stats.CacheAnswers++
			n.trace.Event(n.id, req.QueryID, trace.Answer, now, "store")
			n.sendDataTo(from, obj, req.Origin, req.QueryID)
			return
		}
	}

	// Source answer: sample the sensor.
	if req.SourceNode == n.id && n.desc != nil {
		obj := n.sample(now)
		if n.duplicateInFlight(req.Object, from, obj.Size, now) {
			return
		}
		n.sendDataTo(from, obj, req.Origin, req.QueryID)
		return
	}

	if !n.interest.Add(req.Object, req.Origin, req.QueryID, from, req.Budget, now) {
		n.forwardRequest(req, 0)
	}
}

// duplicateInFlight reports whether this object was already sent to the
// neighbor so recently that the copy is plausibly still serializing on
// the link — in which case the request is almost certainly a spurious
// retransmit racing a slow transfer, and answering it again would only
// add a redundant full copy to the congestion that delayed the first.
// The in-flight window is the same size allowance the retry timers use
// (Size/RetryBandwidth), so a genuine loss is still recovered: the
// requester's next retransmit lands at least one base interval past the
// window and gets answered. When true, the send is suppressed; when
// false, the window is (re)armed for the send the caller is about to
// make. Callers hold n.mu.
func (n *Node) duplicateInFlight(objName, neighbor string, size int64, now time.Time) bool {
	if n.disableRetries || n.retryBandwidth <= 0 {
		return false
	}
	key := sentKey{objName, neighbor}
	if until, ok := n.sentRecently[key]; ok && now.Before(until) {
		n.stats.DupSuppressed++
		return true
	}
	dropLapsed(n.sentRecently, 4096, now)
	n.sentRecently[key] = now.Add(time.Duration(float64(size) / n.retryBandwidth * float64(time.Second)))
	return false
}

// forwardRequest sends a request upstream toward its source, under the
// object's interest mark, and, unless retries are disabled, arms a
// retransmit timer: the request is re-forwarded with exponential backoff,
// up to maxRetries, for as long as its mark and a waiter live
// (InterestTable.retransmit), carrying as its budget what is left of the
// last live waiter here. Retransmissions recover hop-by-hop — a
// duplicate is absorbed by the next hop's mark, or answered from its
// content store once data passed through — so a spurious retry costs one
// request message on one link. Callers hold n.mu.
func (n *Node) forwardRequest(req *ObjectRequest, attempt int) {
	if n.audit != nil {
		n.audit.forwarded(n.interest, req.Object, n.now())
	}
	n.sendTo(req.SourceNode, req)
	if n.disableRetries {
		return
	}
	var objSize int64
	if r := n.dir.View().source(req.SourceNode); r != nil {
		objSize = r.desc.Size
	}
	gen := n.interest.reqs[req.Object].gen // the mark req goes under
	n.interest.holdRetry(req.Object, n.arm(n.retryDelay(attempt, objSize), func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		now := n.now()
		until := now.Add(n.retryDelay(attempt+1, objSize) + retryInterval)
		if n.interest.retransmit(req.Object, gen, attempt+1 > maxRetries, until, now) {
			n.stats.Retransmits++
			n.trace.Event(n.id, req.QueryID, trace.Retry, now, "retransmit")
			again := *req
			again.Budget = n.interest.budget(req.Object, now)
			n.forwardRequest(&again, attempt+1)
		}
	}))
}

// sample returns the sensor's current object, reusing the last sample
// while it is fresh (sensors sample at their validity period, Section
// IV-A). Callers hold n.mu.
func (n *Node) sample(now time.Time) *object.Object {
	if n.lastSample != nil && n.lastSample.FreshAt(now) {
		return n.lastSample
	}
	n.version++
	obj := &object.Object{
		ID:       object.ID{Name: n.desc.Name, Version: n.version},
		Size:     n.desc.Size,
		Created:  now,
		Validity: n.desc.Validity,
		Labels:   append([]string(nil), n.desc.Labels...),
		Source:   n.id,
	}
	n.lastSample = obj
	n.store.Put(obj, now)
	return obj
}

// dataMsg builds the wire form of an object destined for dest.
func dataMsg(obj *object.Object, dest, queryID string) *ObjectData {
	return &ObjectData{
		Object:     obj.ID.Name.String(),
		Version:    obj.ID.Version,
		Size:       obj.Size,
		Created:    obj.Created,
		Validity:   obj.Validity,
		Labels:     obj.Labels, // read-only, as the object's (DESIGN §3.6)
		SourceNode: obj.Source,
		Origin:     dest,
		QueryID:    queryID,
	}
}

// dataPriority gives critical-namespace objects transmission priority
// (Section V-C).
func (n *Node) dataPriority(msg *ObjectData) int {
	if n.isCritical(msg.Object) {
		return 1
	}
	return 0
}

// sendDataTo ships an object to a specific neighbor — the reverse-path
// hop of the request being answered. Callers hold n.mu.
func (n *Node) sendDataTo(neighbor string, obj *object.Object, dest, queryID string) {
	if neighbor == n.id {
		return
	}
	msg := dataMsg(obj, dest, queryID)
	n.toNeighbor(neighbor, msg, msg.WireSize(), n.dataPriority(msg))
}

// dataToObject is the object a data message carries. Its labels are the
// message's, shared: neither is written after it is made (DESIGN §3.6).
func dataToObject(d *ObjectData) *object.Object {
	return &object.Object{
		ID:       object.ID{Name: names.MustParse(d.Object), Version: d.Version},
		Size:     d.Size,
		Created:  d.Created,
		Validity: d.Validity,
		Labels:   d.Labels,
		Source:   d.SourceNode,
	}
}

// handleData implements Data_Recv (Section VI-C): cache the object,
// satisfy waiting interests along their reverse paths, and deliver to any
// interested local query. Data follows an interest or stops: an object no
// waiter here asked for goes no further (a lapsed waiter's origin asks
// again when its recovery timer fires).
func (n *Node) handleData(from string, d *ObjectData) {
	now := n.now()
	obj := dataToObject(d)
	n.store.Put(obj, now)

	// One copy per downstream neighbor suffices: that neighbor's own
	// interest table fans out further.
	sentTo := make(map[string]bool)
	for _, w := range n.interest.Waiters(d.Object, now) {
		if w.from == n.id || w.origin == n.id {
			continue // local delivery handled below
		}
		if !sentTo[w.from] {
			sentTo[w.from] = true
			n.sendDataTo(w.from, obj, w.origin, w.queryID)
		}
	}

	// Any pending local query that can use this object's evidence gets
	// it, whether or not it asked (opportunistic reuse across queries).
	n.deliverObject(obj, now)
}

// deliverObject annotates an arrived object against every pending local
// query that references any of its labels, then advances those queries.
// The query origin is the predicate evaluator (Section VI-C). Callers hold
// n.mu.
func (n *Node) deliverObject(obj *object.Object, now time.Time) {
	if n.annotator == nil {
		return
	}
	objName := obj.ID.Name.String()
	labels := n.labelCache()
	// A signer whose key has been replaced signs records no node accepts,
	// this one included: they are shared but not cached, and no record
	// held is theirs to reuse.
	own := n.signer.Current()
	var evidence []string // [obj.ID.String()], made for the first record that cites it
	for q := n.liveAfter(""); q != nil; q = n.liveAfter(q.engine.ID()) {
		if !q.reqs[objName].inFlight && !queryWantsAny(q, obj) {
			continue
		}
		if r, waiting := q.step(objName, reqData, 0); waiting {
			n.m.fetchLatency.ObserveDuration(now.Sub(r.at))
		}
		if q.engine.Step(now) != core.Pending {
			n.recordIfTerminal(q)
			continue
		}
		var records []trust.Label
		for _, label := range obj.Labels {
			if !q.engine.References(label) {
				continue
			}
			value, err := n.annotator.Annotate(label, obj)
			if err != nil {
				continue
			}
			n.stats.Annotations++
			n.trace.Event(n.id, q.engine.ID(), trace.Annotate, now, label)
			if n.sensorNoise > 0 {
				decided, v := n.corroborate(q, label, obj, value)
				if !decided {
					continue // need more evidence; pump seeks another source
				}
				value = v
			}
			if evidence == nil {
				evidence = []string{obj.ID.String()}
			}
			if records == nil {
				// Presized and never grown: the cache holds its records
				// by reference.
				records = make([]trust.Label, 0, len(obj.Labels))
			}
			records = append(records, trust.Label{
				Name:      label,
				Value:     value,
				Annotator: n.signer.Annotator(),
				Evidence:  evidence,
				Computed:  now,
				Validity:  obj.RemainingValidity(now),
			})
			rec := &records[len(records)-1]
			// A record this node already holds with the same signed fields
			// (another query of this delivery wanted the label) has the
			// signature signing would make.
			if held := labels.Held(label, rec.Annotator); own && held != nil && held.SameFields(rec) {
				rec.Signature = held.Signature
			} else {
				n.signer.Sign(rec)
				if own {
					labels.Put(rec)
				}
			}
			// The engine accepts the evidence with the object's expiry.
			_ = q.engine.Set(label, value, obj.Expiry(), obj.Source, n.id)
			n.trace.Event(n.id, q.engine.ID(), trace.Set, now, label)
		}
		if len(records) > 0 {
			// Age of information at decision application (Dong et al.'s
			// age-upon-decision): how stale the evidence already was when
			// its labels entered the decision engine.
			n.m.decisionAge.ObserveDuration(now.Sub(obj.Created))
		}
		// Label sharing: propagate computed labels back toward the data
		// source so the path caches them (Section VI-D).
		if n.choices.shareLabels && len(records) > 0 && obj.Source != n.id {
			n.sendTo(obj.Source, &LabelShare{Records: records, Dest: obj.Source})
		}
		n.pump(q)
	}
}

// admitLabel authenticates a shared record once per node and caches it by
// reference. A record with the same signed fields and signature as the one
// held for its (label, annotator) was authenticated when that one was, and
// is neither verified nor put again; any other is verified, and cached
// only if authentic. It reports whether rec is authentic. labels is
// n.labelCache(); callers hold n.mu.
func (n *Node) admitLabel(labels *cache.LabelCache, rec *trust.Label) bool {
	if held := labels.Held(rec.Name, rec.Annotator); held != nil &&
		held.Signature == rec.Signature && held.SameFields(rec) {
		return true
	}
	if n.authority.Verify(rec) != nil {
		return false
	}
	labels.Put(rec)
	return true
}

// coversAnyLabel reports whether the object evidences at least one of the
// wanted labels.
func coversAnyLabel(obj *object.Object, wanted []string) bool {
	for _, w := range wanted {
		if obj.CoversLabel(w) {
			return true
		}
	}
	return false
}

func queryWantsAny(q *localQuery, obj *object.Object) bool {
	for _, l := range obj.Labels {
		if q.engine.References(l) {
			return true
		}
	}
	return false
}

// handleLabelShare caches shared label records and either consumes them
// (when this node is the destination) or forwards them on (Section VI-D).
// Each record is authenticated once per node (admitLabel), before it is
// cached or applied to a query.
func (n *Node) handleLabelShare(from string, s *LabelShare) {
	now := n.now()
	// Only a share addressed to a query still live at this node is applied
	// as well as cached; one traveling toward the data source carries no
	// query id and ends its propagation at its destination.
	var q *localQuery
	if s.Dest == n.id && s.QueryID != "" {
		q = n.queries[s.QueryID]
	}
	labels := n.labelCache()
	accepted := false
	for i := range s.Records {
		rec := &s.Records[i]
		if !n.admitLabel(labels, rec) {
			continue
		}
		if q != nil && n.policy.AcceptVerified(rec, now) == nil &&
			q.engine.Set(rec.Name, rec.Value, rec.Expiry(), "", rec.Annotator) == nil {
			accepted = true
			n.trace.Event(n.id, s.QueryID, trace.Set, now, rec.Name)
		}
	}
	if s.Dest != n.id {
		n.sendTo(s.Dest, s)
		return
	}
	if q == nil {
		return
	}
	// A label answer retires the object requests it answered: those whose
	// object evidences no label the query still wants. Any other stays in
	// flight; settled, the next pump would only request it again.
	if accepted {
		for objName, r := range q.reqs {
			if r.inFlight && !q.engine.WantsAny(r.labels, now) {
				q.step(objName, reqLabel, 0)
			}
		}
	}
	n.pump(q)
}

// kick schedules a drain, unless one is already scheduled. Nothing stops
// a drain, so it goes on the timers' pooled events. Callers hold n.mu.
func (n *Node) kick() {
	if n.draining {
		return
	}
	n.draining = true
	n.timers.AfterArg(0, drainTimer, n)
}

// drainTimer is drain in the shape Timers.AfterArg calls. arg is the node,
// already on the heap, so scheduling a drain allocates no closure.
func drainTimer(arg any) { arg.(*Node).drain() }

// drain processes the fetch queue fully. It is kick's callback.
func (n *Node) drain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	// A drain issues a query's whole fan-in burst synchronously; ship
	// what it coalesced as soon as the burst is done (the Nagle push).
	defer n.flushBursts()
	n.draining = false

	// Drain the fetch queue most-urgent query first (hierarchical
	// priority bands, ref [1]); the sort is stable so a query's own
	// requests keep their plan order.
	slices.SortStableFunc(n.fetchQ, func(a, b queuedRequest) int {
		return cmp.Compare(a.urgency, b.urgency)
	})
	// By index, re-reading the queue: a dispatch may append to it, and
	// what it appends is drained in this pass, after the sorted entries.
	// The queue keeps its backing array for the next drain.
	for i := 0; i < len(n.fetchQ); i++ {
		req := n.fetchQ[i].req
		// Checked per entry: a dispatch can finish a query whose other
		// requests are still queued, and those are no longer owed.
		if q, live := n.queries[req.QueryID]; live {
			n.dispatchRequest(q, req)
		}
	}
	clear(n.fetchQ)
	n.fetchQ = n.fetchQ[:0]

}

// dispatchRequest serves a request of local query q: local cache and
// own-sensor answers short-circuit the network entirely; otherwise the
// request is routed toward the source. Callers hold n.mu.
func (n *Node) dispatchRequest(q *localQuery, req *ObjectRequest) {
	now := n.now()

	// Local label-cache answer (lvfl).
	if n.choices.shareLabels {
		satisfied := true
		for _, l := range req.Labels {
			// The cache holds only authenticated records (admitLabel).
			rec, found := n.labelCache().Get(l, n.policy, now)
			if !found || n.policy.AcceptVerified(rec, now) != nil {
				satisfied = false
				break
			}
			if n.audit != nil {
				n.audit.served(rec, now)
			}
			_ = q.engine.Set(rec.Name, rec.Value, rec.Expiry(), "", rec.Annotator)
			n.trace.Event(n.id, q.engine.ID(), trace.Set, now, rec.Name)
		}
		if satisfied {
			n.stats.LabelAnswers++
			n.trace.Event(n.id, q.engine.ID(), trace.Answer, now, "label")
			q.step(req.Object, reqLabel, 0)
			n.pump(q)
			return
		}
	}

	// Local content store; deliverObject takes the request out of flight
	// and pumps the query. An object under the requested name that covers
	// none of the requested labels is not the request's data (another
	// source advertises the name with other labels): answering with it
	// would take the request out of flight, the pump would ask again and
	// this drain would dispatch it again, for ever. It goes to the network.
	if name, err := names.Parse(req.Object); err == nil {
		if obj, ok := n.store.Get(name, now); ok {
			if coversAnyLabel(obj, req.Labels) {
				n.stats.CacheAnswers++
				n.trace.Event(n.id, q.engine.ID(), trace.Answer, now, "store")
				n.deliverObject(obj, now)
				return
			}
			n.stats.ForeignAnswers++
		}
	}

	// Own sensor.
	if req.SourceNode == n.id && n.desc != nil {
		obj := n.sample(now)
		n.deliverObject(obj, now)
		return
	}

	// A query with no time left has no use for what the request would
	// bring back, and a budget of zero would read as none upstream.
	req.Budget = q.engine.Deadline().Sub(now)
	if req.Budget <= 0 {
		return
	}
	n.sendTo(req.SourceNode, req)
}
