// Package athena implements the paper's proof-of-concept system
// (Section VI): a distributed node that resolves decision queries by
// routing object requests toward data sources through interest tables,
// caching objects and labels on path, and — with label sharing enabled —
// answering object requests with tiny signed label records instead of
// megabyte evidence objects.
package athena

import (
	"fmt"
	"time"

	"athena/internal/trust"
)

// Scheme selects the data-retrieval strategy, matching the five schemes
// evaluated in Section VII. A scheme is three choices (schemeChoices):
// which sources a query asks, the order its requests go out in, and
// whether computed labels are shared.
type Scheme int

const (
	// SchemeCMP is comprehensive retrieval: every relevant object from
	// every covering source, requested eagerly.
	SchemeCMP Scheme = iota + 1
	// SchemeSLT adds source selection (least-cost set cover) to CMP.
	SchemeSLT
	// SchemeLCF is SLT with requests dispatched lowest-cost-first.
	SchemeLCF
	// SchemeLVF is decision-driven scheduling: sequential short-circuit
	// retrieval with longest-validity-first ordering, no label sharing.
	SchemeLVF
	// SchemeLVFL is LVF with label sharing enabled.
	SchemeLVFL
)

// selectRule is which sources a query requests evidence from.
type selectRule uint8

const (
	// selectEvery asks every source covering a label.
	selectEvery selectRule = iota
	// selectCover asks the least-cost set cover of the query's labels.
	selectCover
)

// orderRule is how a query's requests are scheduled.
type orderRule uint8

const (
	// orderNone keeps a request in flight for every unresolved label, in
	// the order a walk of the directory gives, planned greedily.
	orderNone orderRule = iota
	// orderCost is orderNone with the requests sent lowest cost first.
	orderCost
	// orderValidity is decision-driven: one label at a time, the plan
	// short-circuiting and longest validity first.
	orderValidity
)

// choices are what a scheme decides: its selection, its order and whether
// its nodes share computed labels (label records answer requests on the
// path, Section VI-D).
type choices struct {
	sel         selectRule
	order       orderRule
	shareLabels bool
}

// schemeChoices is the preset table: each scheme's name and choices. The
// index is the scheme's value.
var schemeChoices = [...]struct {
	name string
	choices
}{
	SchemeCMP:  {"cmp", choices{selectEvery, orderNone, false}},
	SchemeSLT:  {"slt", choices{selectCover, orderNone, false}},
	SchemeLCF:  {"lcf", choices{selectCover, orderCost, false}},
	SchemeLVF:  {"lvf", choices{selectCover, orderValidity, false}},
	SchemeLVFL: {"lvfl", choices{selectCover, orderValidity, true}},
}

// valid reports whether s is one of the five schemes.
func (s Scheme) valid() bool { return s >= SchemeCMP && s <= SchemeLVFL }

// String returns the paper's abbreviation for the scheme.
func (s Scheme) String() string {
	if !s.valid() {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeChoices[s].name
}

// ParseScheme parses a paper abbreviation.
func ParseScheme(s string) (Scheme, error) {
	for _, sc := range Schemes() {
		if schemeChoices[sc].name == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("athena: unknown scheme %q", s)
}

// Schemes lists all retrieval schemes in the paper's presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeCMP, SchemeSLT, SchemeLCF, SchemeLVF, SchemeLVFL}
}

// Wire message sizes (bytes) used for bandwidth accounting. Control
// messages are small; object payloads dominate, as in the paper.
//
// These constants are load-bearing: netsim charges WireSize() against
// link bandwidth, and the TCP transport pads each encoded frame up to it
// (internal/wire), so every constant must be at least the realistic raw
// encoding of its message. internal/wire's TestWireSizeIsFrameLength and
// TestConstantsCoverRawEncoding keep them honest. labelRecordBytes stays
// well above the raw encoding of a trust.Label on purpose: the HMAC
// signer is a stand-in for a PKI, and 600 B models a real signed record
// (X.509-style cert chain reference + signature), matching the paper's
// label-vs-object byte comparisons.
const (
	gossipBaseBytes  = 200
	requestBytes     = 160
	dataHeaderBytes  = 256
	labelRecordBytes = 600
	heartbeatBytes   = 64
	advertBytes      = 160
	joinBaseBytes    = 120
	peerEntryBytes   = 48
	syncBaseBytes    = 96
	// pingBaseBytes was 72, which underpriced the probe header: a raw
	// Ping frame with OnBehalf set (indirect probe) and realistic node
	// ids already encodes to ~80 B before piggyback, so gossip-mode
	// byte tables were charging less than the wire ships.
	pingBaseBytes     = 96
	memberUpdateBytes = advertBytes + 16
	seqEntryBytes     = 24
	// Shard-routed directory traffic: a lookup is a small routed frame
	// (sender, target, shard, nonce), its reply lists the shard's labels
	// on top of the adverts, and a scoped sync carries a shard-id list on
	// top of the usual seq-vector + advert load.
	shardLookupBytes = 128
	shardLabelBytes  = 32
	shardIDBytes     = 4
	// Coalesced data-plane frames: one batch header amortizes the
	// per-message overhead (length prefix, version/type, addressing,
	// padding slack) across every member, so a batched member is priced
	// below its standalone frame. The deltas — 48 B per request, 64 B per
	// data header — are the modeled per-frame overhead batching reclaims.
	batchBaseBytes         = 64
	batchedRequestBytes    = requestBytes - 48
	batchedDataHeaderBytes = dataHeaderBytes - 64
)

// Deprecated: QueryAnnounce is no longer sent, encoded or handled. It
// flooded a query's expression so that nearby sources could push
// evidence ahead of requests; nodes no longer do either.
type QueryAnnounce struct {
	QueryID string
}

// ObjectRequest asks for a (fresh copy of a) data object, traveling
// hop-by-hop toward its source node.
type ObjectRequest struct {
	// QueryID names the decision query this request serves.
	QueryID string
	// Origin is the query's origin node (where data must return).
	Origin string
	// Object is the requested object's semantic name.
	Object string
	// SourceNode hosts the sensor that originates the object.
	SourceNode string
	// Labels are the predicates the origin wants resolved from the
	// object; a label-cache hit on all of them can answer the request.
	Labels []string
	// Budget is what was left of the query's deadline when the request
	// was sent: a forwarder's waiter lapses no later than that after it
	// arrives. Zero is none (the interest TTL alone bounds the waiter). A
	// duration, not an instant, so daemons need no shared clock.
	Budget time.Duration
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m ObjectRequest) WireSize() int64 { return requestBytes }

// ObjectData carries an evidence object hop-by-hop back along the reverse
// path its request left in the interest tables, being cached at every
// node on the way (Section VI-C).
type ObjectData struct {
	// Object is the object's semantic name.
	Object string
	// Version is the sample sequence number.
	Version uint64
	// Size is the object payload size in bytes.
	Size int64
	// Created is the sample instant.
	Created time.Time
	// Validity is the freshness interval.
	Validity time.Duration
	// Labels are the predicates the object can evidence.
	Labels []string
	// SourceNode is the originating sensor node.
	SourceNode string
	// Origin is the query's origin node. Data follows the interest
	// tables, so no receiver reads it.
	Origin string
	// QueryID is the query that requested it.
	QueryID string
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m ObjectData) WireSize() int64 { return dataHeaderBytes + m.Size }

// LabelShare propagates signed label records (Section VI-D): from an
// evaluator back toward the data source for caching, or from a caching
// node back to a requester as a cheap answer to an ObjectRequest.
type LabelShare struct {
	// Records are the signed labels.
	Records []trust.Label
	// Dest is the node the share is routed toward.
	Dest string
	// QueryID is the query served ("" for propagation toward sources).
	QueryID string
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m LabelShare) WireSize() int64 {
	return int64(len(m.Records)) * labelRecordBytes
}

// Heartbeat is the liveness beacon of the membership layer: flooded
// network-wide (deduplicated by Beat) so every replica's failure detector
// hears every live node. AdvSeq and Digest let receivers notice missing
// advertisements and divergent directories and trigger anti-entropy.
type Heartbeat struct {
	// Node is the beating node.
	Node string
	// Beat is the node's monotonic heartbeat counter (flood dedup key).
	Beat uint64
	// AdvSeq is the node's current advertisement sequence number (0 if it
	// advertises no source).
	AdvSeq uint64
	// Digest summarizes the sender's directory (see Directory.Digest).
	Digest uint64
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m Heartbeat) WireSize() int64 { return heartbeatBytes }

// AdvertGossip propagates advertisement records. In flood mode (To empty)
// it fans network-wide and a node re-floods only the records that were
// news to its own directory, so the flood self-terminates once every
// replica has applied them. In gossip mode it is routed point-to-point:
// the closing push of a seq-vector anti-entropy exchange.
type AdvertGossip struct {
	// To routes the records to one node ("" = flood to all neighbors).
	To string
	// Adverts are the advertisement records being propagated.
	Adverts []Advertisement
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m AdvertGossip) WireSize() int64 {
	return gossipBaseBytes + int64(len(m.Adverts))*advertBytes
}

// PeerJoin is the join handshake: a newcomer introduces itself to one
// known peer, carrying its own advertisements and (over TCP) its dialable
// address.
type PeerJoin struct {
	// Node is the joining node.
	Node string
	// Addr is the joiner's dialable transport address ("" on transports
	// with fixed topology, e.g. the simulator).
	Addr string
	// Adverts are the joiner's directory records (usually just its own).
	Adverts []Advertisement
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m PeerJoin) WireSize() int64 {
	return joinBaseBytes + int64(len(m.Adverts))*advertBytes
}

// PeerJoinAck answers a PeerJoin with the responder's directory and (over
// TCP) the addresses of the peers it knows, so the newcomer can complete
// the mesh.
type PeerJoinAck struct {
	// Node is the responding node.
	Node string
	// Addr is the responder's dialable address ("" on the simulator).
	Addr string
	// Peers maps known peer ids to their dialable addresses.
	Peers map[string]string
	// Adverts are the responder's directory records.
	Adverts []Advertisement
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m PeerJoinAck) WireSize() int64 {
	return joinBaseBytes + int64(len(m.Peers))*peerEntryBytes + int64(len(m.Adverts))*advertBytes
}

// SyncRequest opens a push-pull anti-entropy exchange (partition healing,
// Section VI-D spirit): the requester sends its per-source seq vector
// (Seqs), and each side then ships just the records the other is behind on
// — delta extraction against a seq watermark. A scoped exchange (Shards
// set) is the sharded directory's: the vector and every delta are
// restricted to the shards both ends replicate, which also makes it the
// backfill path when a node gains a shard.
type SyncRequest struct {
	// From is the requesting node (the SyncResponse's destination).
	From string
	// To routes the exchange to one node over multiple hops ("" = the
	// receiving neighbor, the pre-gossip behavior).
	To string
	// Shards scopes the exchange to these shard ids (empty = the whole
	// directory).
	Shards []uint32
	// Seqs maps each source in scope to its encoded sequence state (see
	// Directory.SeqVector).
	Seqs map[string]uint64
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m SyncRequest) WireSize() int64 {
	return syncBaseBytes + int64(len(m.Shards))*shardIDBytes + int64(len(m.Seqs))*seqEntryBytes
}

// SyncResponse completes the exchange with the delta the requester's seq
// vector was missing plus the responder's own vector (so the requester can
// push back whatever the responder lacks), within the request's Shards
// when it was scoped.
type SyncResponse struct {
	// From is the responding node.
	From string
	// To routes the response back to the requester ("" = neighbor).
	To string
	// Shards echo the exchange's scope.
	Shards []uint32
	// Adverts are the records the requester's vector was behind on.
	Adverts []Advertisement
	// Seqs is the responder's seq vector over the scope.
	Seqs map[string]uint64
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m SyncResponse) WireSize() int64 {
	return syncBaseBytes + int64(len(m.Shards))*shardIDBytes + int64(len(m.Adverts))*advertBytes +
		int64(len(m.Seqs))*seqEntryBytes
}

// MemberUpdate is one piggybacked membership event riding on Ping/Ack/
// PingReq: a (re-)advertisement, a withdraw tombstone (Adv.Withdrawn), or
// a failure-detector eviction notice (Dead) at the sequence number the
// detector last saw. A Dead notice is refutable: the subject re-advertises
// past Adv.Seq (SWIM's incarnation bump) and the fresher advert supersedes
// the notice everywhere it spreads.
type MemberUpdate struct {
	// Adv carries the subject's advertisement state.
	Adv Advertisement
	// Dead marks a failure-detector eviction notice for Adv.Source.
	Dead bool
	// Born stamps the update's origination, for convergence measurement
	// (meaningful under the simulator's shared virtual clock).
	Born time.Time
}

// Ping is the SWIM probe: a direct liveness check of To, carrying the
// prober's advert seq + directory digest (to trigger anti-entropy exactly
// like a flooded heartbeat would) and a bounded piggyback buffer of
// membership updates. When relayed by an intermediary (ping-req), OnBehalf
// names the original prober and the target acks it directly.
type Ping struct {
	// From is the probing (or relaying) node.
	From string
	// To is the probe target; intermediate hops forward unopened.
	To string
	// Seq matches the ack to the prober's outstanding probe state.
	Seq uint64
	// AdvSeq is the prober's current advertisement sequence number.
	AdvSeq uint64
	// Digest summarizes the prober's directory (see Directory.Digest).
	Digest uint64
	// OnBehalf is the original prober when this ping is an indirect probe
	// relayed by an intermediary ("" for direct probes).
	OnBehalf string
	// OnBehalfSeq is the original prober's probe sequence number.
	OnBehalfSeq uint64
	// Updates is the piggybacked membership delta.
	Updates []MemberUpdate
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m Ping) WireSize() int64 {
	return pingBaseBytes + int64(len(m.Updates))*memberUpdateBytes
}

// Ack answers a Ping, carrying the responder's own state and piggyback
// buffer back — every probe round doubles as a bidirectional update
// exchange.
type Ack struct {
	// From is the acking node (the probe's target).
	From string
	// To is the prober the ack is routed to.
	To string
	// Seq echoes the probe's sequence number.
	Seq uint64
	// AdvSeq is the acker's current advertisement sequence number.
	AdvSeq uint64
	// Digest summarizes the acker's directory.
	Digest uint64
	// Updates is the piggybacked membership delta.
	Updates []MemberUpdate
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m Ack) WireSize() int64 {
	return pingBaseBytes + int64(len(m.Updates))*memberUpdateBytes
}

// PingReq asks intermediary To to probe Target on From's behalf — the
// SWIM indirect probe that separates "the target is dead" from "my path
// to the target is bad" before eviction.
type PingReq struct {
	// From is the suspecting prober.
	From string
	// To is the intermediary asked to relay the probe.
	To string
	// Target is the suspect to probe.
	Target string
	// Seq is the prober's probe sequence number (echoed by the ack).
	Seq uint64
	// Updates is the piggybacked membership delta.
	Updates []MemberUpdate
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m PingReq) WireSize() int64 {
	return pingBaseBytes + int64(len(m.Updates))*memberUpdateBytes
}

// ShardLookup asks a shard owner for the labels of one shard it holds and
// the adverts covering them. Under sharding, a non-owner holds only thin
// records for the labels' sources, so the query path routes to the labels'
// home shard instead of scanning a full replica; the labels of one region
// share a shard, so one lookup answers all of a region's labels.
type ShardLookup struct {
	// From is the querying node (the reply's destination).
	From string
	// To is the shard owner the lookup is routed to.
	To string
	// Shard is the shard asked about.
	Shard uint32
	// Nonce matches the reply to the querier's pending lookup state.
	Nonce uint64
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m ShardLookup) WireSize() int64 { return shardLookupBytes }

// ShardLookupReply answers a ShardLookup with the shard's labels the owner
// covers and the full advertisements of the present sources covering any
// of them, straight from the owner's shard-local index.
type ShardLookupReply struct {
	// From is the answering shard owner.
	From string
	// To routes the reply back to the querier.
	To string
	// Nonce echoes the lookup's nonce; it alone names the pending lookup.
	Nonce uint64
	// Labels are the shard's labels some advert covers, sorted: an asked
	// label missing from them is covered by nobody.
	Labels []string
	// Adverts are the covering sources' full advertisement records, sorted
	// by source.
	Adverts []Advertisement
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
func (m ShardLookupReply) WireSize() int64 {
	return shardLookupBytes + int64(len(m.Labels))*shardLabelBytes + int64(len(m.Adverts))*advertBytes
}

// RequestBatch coalesces same-neighbor ObjectRequests into one frame.
// A batch is a hop-local container: it is addressed to a direct neighbor,
// and each member carries its own end-to-end routing state (Origin,
// SourceNode), so the receiver unpacks it and runs every member through
// the ordinary request path — forwarding re-coalesces at the next hop.
type RequestBatch struct {
	// Requests are the coalesced member requests, in enqueue order.
	Requests []ObjectRequest
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
// One batch header replaces the members' per-frame overhead.
func (m RequestBatch) WireSize() int64 {
	return batchBaseBytes + int64(len(m.Requests))*batchedRequestBytes
}

// DataBatch coalesces same-neighbor ObjectData messages into one frame.
// Like RequestBatch it is hop-local: members keep their own Origin and
// QueryID, and the receiver feeds each through the ordinary data path
// (caching, interest fan-out, onward forwarding).
type DataBatch struct {
	// Items are the coalesced member objects, in enqueue order.
	Items []ObjectData
}

// WireSize is the modeled frame length of the encoded message, charged
// against link bandwidth by netsim and padded to by the TCP transport.
// Members keep their payload bytes; only the per-frame header shrinks.
func (m DataBatch) WireSize() int64 {
	size := int64(batchBaseBytes)
	for i := range m.Items {
		size += batchedDataHeaderBytes + m.Items[i].Size
	}
	return size
}
