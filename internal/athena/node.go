package athena

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"athena/internal/annotate"
	"athena/internal/boolexpr"
	"athena/internal/cache"
	"athena/internal/core"
	"athena/internal/cover"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/trace"
	"athena/internal/transport"
	"athena/internal/trust"
)

// Router supplies next hops toward non-neighbor nodes. The simulator's
// network implements it; a deployment would use static tables or a routing
// protocol.
type Router interface {
	// NextHop returns the neighbor of from on a path toward to.
	NextHop(from, to string) (string, error)
}

// Timers schedules callbacks; the simulator's scheduler and wall-clock
// timers both satisfy it. Neither method returns a handle: a timer runs
// when it comes due, and the node's guards make one that outlived what it
// guarded do nothing. Timers that can also be stopped implement StopTimers,
// and the node then stops each one as soon as what it guards is settled.
type Timers interface {
	// After runs fn after d (d <= 0 means as soon as possible).
	After(d time.Duration, fn func())
	// AfterArg runs fn(arg) after d. Hot paths pass a stored method value
	// and an already-allocated argument so no closure is built per timer;
	// the simulator's scheduler additionally recycles the event, since no
	// handle escapes.
	AfterArg(d time.Duration, fn func(arg any), arg any)
}

// StopTimers is the optional interface of Timers whose timers can be
// stopped before they fire. The stop releases memory and changes no
// behaviour: a stopped timer lets go of its callback, and with it of
// everything the callback reaches, instead of holding it until it comes
// due; on a daemon making thousands of decisions a second that is most of
// its heap (DESIGN §5 item 11(a)). A timer left to fire finds its guard
// settled and does nothing, so a node acts the same on either clock.
// WallTimers implements it; the simulator's LaneTimers does not.
type StopTimers interface {
	// AfterStop is After, returning the armed timer.
	AfterStop(d time.Duration, fn func()) Stopper
}

// Stopper is an armed timer; *time.Timer is one. Stop reports whether it
// stopped the timer: false means the timer had fired (its callback may be
// waiting for the node lock) or been stopped already.
type Stopper interface{ Stop() bool }

// stop stops h, if there is one. A stop that loses the race to a firing
// callback is harmless: every timer the node stops is one whose callback
// now finds nothing to do.
func stop(h Stopper) {
	if h != nil {
		h.Stop()
	}
}

// Stats counts a node's activity. A field tagged `metric:"name"` is also
// the registry counter of that name: the registry reads it when it takes
// a snapshot (Node.collect).
type Stats struct {
	// QueriesIssued counts locally originated queries.
	QueriesIssued int
	// ResolvedTrue / ResolvedFalse / Expired count terminal statuses of
	// local queries.
	ResolvedTrue, ResolvedFalse, Expired int
	// RequestsSent counts object requests dispatched (first sends and
	// refetches).
	RequestsSent int
	// Refetches counts repeat sends of an object the query sent before,
	// whatever ended the earlier send: a recovery timeout, a label answer,
	// the loss of its source, or the object's evidence expiring.
	Refetches int
	// Retransmits counts upstream requests re-forwarded by the interest
	// layer after a retry window lapsed without data.
	Retransmits int `metric:"retry.retransmits"`
	// RequestTimeouts counts origin-side request timeouts (the backoff
	// timer fired with the request still unanswered).
	RequestTimeouts int `metric:"retry.timeouts"`
	// DupSuppressed counts duplicate requests dropped because the object
	// was plausibly still in flight to the same neighbor.
	DupSuppressed int
	// CacheAnswers counts requests served from the local content store.
	CacheAnswers int
	// ForeignAnswers counts content-store hits declined because the stored
	// object covers none of the request's labels: a source advertises the
	// name with labels its content does not carry. The request went to the
	// network instead. Omitted from JSON at zero.
	ForeignAnswers int `json:",omitempty"`
	// LabelAnswers counts requests answered with cached label records.
	LabelAnswers int
	// Annotations counts labels computed locally.
	Annotations int
	// RoutingDrops counts messages dropped for lack of a route.
	RoutingDrops int
	// HeartbeatsSent counts membership heartbeats originated here.
	HeartbeatsSent int `metric:"membership.heartbeats_sent"`
	// Evictions counts sources this node's failure detector evicted.
	Evictions int `metric:"membership.evictions"`
	// SyncExchanges counts anti-entropy exchanges this node initiated.
	SyncExchanges int `metric:"membership.sync_rounds"`
	// PingsSent counts SWIM probes (direct, indirect requests, and relays)
	// originated here.
	PingsSent int `metric:"membership.pings_sent"`
	// Suspicions counts probe targets that entered the suspect state here.
	Suspicions int `metric:"membership.suspicions"`
	// Refutations counts false-positive evictions of this node it refuted
	// by re-advertising with a bumped sequence number.
	Refutations int `metric:"membership.refutations"`
	// ControlMsgs / ControlBytes count membership control-plane traffic
	// (heartbeats, adverts, leaves, syncs, pings/acks) sent or forwarded by
	// this node, in both flood and gossip mode.
	ControlMsgs  int   `metric:"membership.ctl_msgs"`
	ControlBytes int64 `metric:"membership.ctl_bytes"`
	// Deprecated: PlanCacheHits is always 0; the node no longer memoizes
	// query plans. It stays for callers that still read it.
	PlanCacheHits int
	// ShardLookups counts routed label lookups this node issued (sharded
	// directory); ShardLookupHits counts query-path resolutions served from
	// the local lookup cache instead, a negative entry's included.
	ShardLookups    int
	ShardLookupHits int
	// ShardReselects counts source selections re-solved once a query's
	// last pending lookup left the pending table (answered, given up, or
	// out of replicas). Omitted from JSON at zero, so an unsharded run's
	// output has the bytes it had before the counter existed.
	ShardReselects int `json:",omitempty"`
	// ShardServed counts routed lookups this node answered as a shard
	// owner.
	ShardServed int
	// ShardReroutes counts lookup re-sends to an alternate replica (retry
	// timeouts and owner evictions).
	ShardReroutes int
	// ShardRepliesDropped counts lookup replies refused: for no lookup
	// pending here, listing a label outside the shard asked about, or
	// carrying an advert whose seq no record may take. Omitted from JSON
	// at zero, as ShardReselects is.
	ShardRepliesDropped int `json:",omitempty"`
	// RecordsRefused counts adverts, tombstones and eviction notices
	// dropped on arrival because their seq is one no record may take
	// (seqHoldable). Omitted from JSON at zero.
	RecordsRefused int `json:",omitempty"`
	// DataFrames counts data-plane frames put on the wire by this node —
	// per-hop ObjectRequest/ObjectData sends plus batch frames — the
	// denominator the batching layer can actually shrink (control-plane
	// floods are untouched by it).
	DataFrames int
	// BatchesSent counts coalesced frames shipped by the data-plane
	// batching layer; BatchedMsgs counts the members they carried.
	BatchesSent int
	BatchedMsgs int
	// BatchBytesSaved is the wire bytes batching saved versus shipping
	// every member in its own frame.
	BatchBytesSaved int64 `metric:"batch.bytes_saved"`
}

// Add accumulates o into s. Every field of Stats is an integer counter;
// walking them by reflection means a new counter reaches fleet totals
// without anyone having to list it (TestStatsAddSumsEveryField fails on
// a field this cannot sum). Called once per node per run, not per event.
func (s *Stats) Add(o Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetInt(dst.Field(i).Int() + src.Field(i).Int())
	}
}

// QueryResult records the outcome of one locally originated query.
type QueryResult struct {
	// QueryID identifies the query.
	QueryID string
	// Status is the terminal status.
	Status core.Status
	// Issued and Finished bound the query's lifetime.
	Issued, Finished time.Time
	// Deadline is the absolute deadline it had.
	Deadline time.Time
	// Waiting is an expired query's post-mortem: what it still waited on
	// when it was recorded. One entry per request covering a label it
	// still wanted, by object name, then one per wanted label no request
	// covered, in plan order. Empty for a resolved query.
	Waiting []Waiting
}

// Waiting is one thing an expired query was still waiting on: a request
// of its, or a label it wanted and never requested.
type Waiting struct {
	// Object is the requested object's name; empty for a label never
	// requested.
	Object string
	// Label is the wanted label no request covered; empty for a request.
	Label string
	// Source is the node the object was requested from.
	Source string
	// Attempts counts the request's recovery timeouts since its object
	// last arrived; Sends counts its sends.
	Attempts, Sends int
	// InFlight is how long the current send had been out; zero when the
	// request was not in flight.
	InFlight time.Duration
	// Suspect is set when the source had exhausted its retries for the
	// query.
	Suspect bool
}

// Config assembles a node.
type Config struct {
	// ID is the node's network identifier.
	ID string
	// Transport delivers messages.
	Transport transport.Transport
	// Router supplies next hops.
	Router Router
	// Timers schedules deadline and expiry events.
	Timers Timers
	// Scheme is the retrieval strategy.
	Scheme Scheme
	// Directory is the semantic lookup service.
	Directory *Directory
	// Meta is per-label planning metadata.
	Meta boolexpr.MetaTable
	// World is the ground truth used for sampling and annotation.
	World annotate.GroundTruth
	// Authority verifies label signatures.
	Authority *trust.Authority
	// Signer signs labels this node computes.
	Signer trust.Signer
	// Policy decides whose labels this node accepts.
	Policy *trust.Policy
	// Descriptor advertises this node's sensor stream (nil if none).
	Descriptor *object.Descriptor
	// CacheBytes bounds the content store (negative = unbounded).
	CacheBytes int64
	// Deprecated: DisablePrefetch is ignored. A node neither announces its
	// queries nor pushes evidence nobody requested.
	DisablePrefetch bool
	// RetryBandwidth is the assumed worst-case end-to-end throughput
	// used to stretch retry delays for large objects: every attempt
	// waits an extra Size/RetryBandwidth on top of the backoff, so a
	// slow-but-healthy multi-hop transfer is not mistaken for a loss
	// (default 50 kB/s — a fraction of the paper's 1 Mbps links, to
	// absorb serialization over several hops plus queueing). The same
	// window arms the responder-side duplicate suppression.
	RetryBandwidth float64
	// DisableRetries turns the recovery layer off (ablation A6 baseline):
	// requests get only the single fixed requestTimeout safety net and
	// forwarded interests are never retransmitted.
	DisableRetries bool
	// SequentialWindow caps concurrent transfers for the decision-driven
	// schemes lvf/lvfl (default 4): near-sequential, with modest
	// pipelining inside the active course of action.
	SequentialWindow int
	// CoalesceWindow enables data-plane batching: ObjectRequests and
	// ObjectData headed for the same neighbor wait up to this long to be
	// merged into RequestBatch/DataBatch frames (see coalesce.go). Zero
	// (the default) keeps the one-frame-per-message behavior, byte for
	// byte. Queries close to their deadline flush immediately and
	// critical-namespace traffic bypasses the queue.
	CoalesceWindow time.Duration
	// CriticalPrefix marks a critical part of the name space
	// (Section V-C): objects under this prefix get transmission priority
	// on priority-capable transports. Zero value disables.
	//lint:allow deadoption only tests set it; ROADMAP item 17 gives criticality (Sec. V-C) a recorded row or removes it
	CriticalPrefix names.Name
	// SensorNoise is the probability a single annotation misreads its
	// evidence (Section IV-B). When positive, labels are corroborated
	// across multiple evidence objects until the posterior confidence
	// reaches confidenceTarget.
	SensorNoise float64
	// HeartbeatInterval enables the live-membership layer: the node floods
	// a heartbeat every interval, evicts sources that miss heartbeatMiss
	// beats, and reconciles directory replicas by anti-entropy. Zero (the
	// default) keeps the directory static — the pre-membership behavior.
	HeartbeatInterval time.Duration
	// GossipFanout switches the membership layer from flooded heartbeats
	// to SWIM-style peer-sampled gossip: each heartbeat interval the node
	// pings this many sampled members directly instead of flooding,
	// suspicion is confirmed through gossipIndirect intermediaries before
	// eviction, and membership updates ride as bounded piggyback buffers
	// on ping/ack instead of being flooded. Zero (the default) keeps the
	// flood protocol. Requires HeartbeatInterval > 0.
	GossipFanout int
	// GossipSeed seeds the deterministic peer-sampling RNG; the node's own
	// id is mixed in, so one scenario seed serves a whole fleet.
	GossipSeed int64
	// Shards enables the sharded directory: an advertisement belongs to
	// its labels' home shards, of this many, each replicated on
	// ShardReplicas nodes chosen by rendezvous hashing over the live
	// membership view. Non-owned payloads are thinned out of the local
	// replica and label lookups outside the owned shards are routed to a
	// shard owner. Zero (the default) keeps the full-replica directory —
	// the pre-sharding behavior, byte for byte. Requires gossip membership
	// (GossipFanout > 0).
	Shards int
	// ShardReplicas is the per-shard replication factor (default 3).
	ShardReplicas int
	// Metrics, when non-nil, publishes the node's activity in the registry.
	// Counts — the tagged Stats fields, retry/failover, cache and
	// interest-table counts — are read from the node whenever the registry
	// takes a snapshot (Node.collect); the directory.version gauge and the
	// latency, decision-age and batch-size histograms are pushed as events
	// happen. Nil keeps instrumentation disabled (every instrument is a nil
	// no-op; see internal/metrics).
	Metrics *metrics.Registry
	// Trace, when non-nil, records the spans of every query that crosses
	// the node (internal/trace). Nil records nothing and allocates
	// nothing; tracing never changes what the node does.
	Trace *trace.Recorder
}

// Fixed parameters of a node. Each was a Config field until it turned out
// that no caller — daemon, simulator, benchmark, experiment, example or
// test — had ever set it, so every recorded figure and golden was taken at
// exactly these values. One becomes a field again when two callers that
// exist need different values (DESIGN §5 item 10, "Options").
const (
	// interestTTL bounds interest-table entries.
	interestTTL = 30 * time.Second
	// batchWindow caps concurrent in-flight object requests per query for
	// the batch schemes cmp/slt/lcf. The decision-driven schemes are
	// near-sequential by design (Config.SequentialWindow).
	batchWindow = 8
	// requestTimeout clears a stuck in-flight request so the query can
	// retry. With retries enabled it also caps the per-attempt backoff
	// delay.
	requestTimeout = 30 * time.Second
	// retryInterval is the base delay before a lapsed request is retried —
	// origin-side re-requests and interest-layer retransmissions both back
	// off from it by retryBackoff per attempt: 6 s, 12 s, 24 s, then the
	// requestTimeout cap (TestRetryDelayLadder).
	retryInterval = 6 * time.Second
	retryBackoff  = 2
	// maxRetries bounds retransmissions per forwarded request and
	// origin-side timeouts before an alternate source is tried.
	maxRetries = 3
	// gossipIndirect is the number of intermediaries asked to ping-req a
	// silent probe target on the prober's behalf.
	gossipIndirect = 2
	// gossipRetransmit is λ in the per-update piggyback retransmit budget
	// λ·⌈log₂(n+1)⌉ (why log n: DESIGN §5.8).
	gossipRetransmit = 3
	// gossipMaxPiggyback caps membership updates per ping/ack.
	gossipMaxPiggyback = 8
	// shardCacheSize bounds the LRU of remote lookup results a sharded
	// node keeps, in labels.
	shardCacheSize = 256
	// heartbeatMiss is the failure detector's tolerance: a source silent
	// for this many heartbeat intervals is evicted (flooded heartbeats).
	heartbeatMiss = 3
	// suspectPeriods is how many heartbeat intervals an unacknowledged
	// probe target stays suspect before eviction (SWIM gossip): three miss
	// budgets. Unlike the flood detector, whose redundant delivery paths
	// refresh liveness from any direction, a sampled probe rides one
	// route, so the window must also cover head-of-line blocking behind
	// bulk object transfers on that route. Any contact clears suspicion,
	// suspects are re-probed every period, and the window dilates under
	// local congestion (the local health multiplier, swim.go).
	suspectPeriods = 3 * heartbeatMiss
	// coalesceBudget is the per-neighbor byte budget that flushes a
	// coalescing queue before its window expires (DESIGN §3.3 rule 4).
	coalesceBudget = 256 << 10
	// confidenceTarget is the posterior confidence a noisy label is
	// corroborated to (Section IV-B; SensorNoise > 0).
	confidenceTarget = 0.95
)

type localQuery struct {
	engine      *core.Engine
	issued      time.Time
	minValidity time.Duration         // smallest positive validity among the labels; 0 = none (queryUrgency)
	selected    []string              // selected source ids (slt/lcf/lvf/lvfl)
	reqs        map[string]objReq     // object name -> the query's request for it, once sent
	inFlight    int                   // the requests in flight: the pumps' window
	suspect     map[string]bool       // sources that exhausted their retries; nil until one does
	batch       *batchTable           // the batch schemes' target table (pumpBatch); nil under lvf/lvfl
	armed       [2]timed              // the instant a pump is armed for and its timer, by purpose (pumpAt)
	watchdog    Stopper               // the deadline watchdog (QueryInit)
	corr        map[string]*corrState // label -> corroboration (noisy mode; nil until a vote)
}

// timed is an instant the node keeps and the timer armed on its account:
// a request's send time and its recovery timer, a pump's instant and its
// timer, an upstream request's expiry and its retransmit timer (the
// interest table's pending mark). The timer is nil unless the node's
// Timers can stop one (StopTimers).
type timed struct {
	at    time.Time
	timer Stopper
}

// objReq is a local query's request for one object, from its first send
// until the query is recorded: in flight or idle, the attempt count, and
// the last send's number, instant, recovery timer, source and descriptor
// labels (which tell a label answer whether it answered this request too). A
// recovery timer carries its send's number: one armed for an earlier send
// does nothing.
type objReq struct {
	timed
	source   string
	labels   []string
	attempts int // recovery timeouts since the object last arrived
	sends    int
	inFlight bool
}

// reqEvent is what happens to an object request (localQuery.step).
type reqEvent uint8

const (
	reqSend    reqEvent = iota // requestObject sends it
	reqTimeout                 // a recovery timer fires
	reqData                    // the object arrives
	reqLabel                   // a label answer covers it
	reqLost                    // its source is evicted
)

// step is the one place an object request of q changes phase. It applies
// ev to obj's request and returns the request after it, and whether it was
// in flight before. A send puts it in flight under the next send number;
// any other event takes it out of flight and stops its timer, except a
// timeout of a send not the current one in flight. A timeout counts an
// attempt and data resets them, in flight or not. Sending a request in
// flight, or any event for one never sent, changes nothing (the table is
// TestObjReqTransitions). Callers hold n.mu.
func (q *localQuery) step(obj string, ev reqEvent, send int) (r objReq, was bool) {
	r, sent := q.reqs[obj]
	was = r.inFlight
	switch {
	case ev == reqSend && was, ev != reqSend && !sent:
		return r, was
	case ev == reqSend:
		r.inFlight, r.sends = true, r.sends+1
		q.inFlight++
	case ev == reqTimeout && (!was || r.sends != send):
		return r, false
	case ev == reqTimeout:
		r.attempts++
	case ev == reqData:
		r.attempts = 0
	case !was:
		return r, was
	}
	if was {
		stop(r.timer)
		r.timer, r.inFlight = nil, false
		q.inFlight--
	}
	q.reqs[obj] = r
	return r, was
}

// suspectSource marks src suspect for q. Callers hold n.mu.
func (q *localQuery) suspectSource(src string) {
	if q.suspect == nil {
		q.suspect = make(map[string]bool)
	}
	q.suspect[src] = true
}

// corrState accumulates noisy annotation votes for one label of one query
// (Section IV-B).
type corrState struct {
	c *annotate.Corroborator
	// votedVersion records which exact object versions already voted.
	votedVersion map[string]bool
	// nameExpiry maps a voted object name to the expiry of the version
	// that voted: a new vote from that source is only possible after it.
	nameExpiry map[string]time.Time
}

// sentKey is an object sent toward a neighbor (duplicateInFlight).
type sentKey struct{ object, neighbor string }

type queuedRequest struct {
	req *ObjectRequest
	// urgency is the issuing query's hierarchical priority key (ref [1]):
	// the minimum of its evidence validity expirations and its decision
	// deadline, precomputed as UnixNano at enqueue so the drain sort
	// compares plain integers. Smaller = more urgent; the fetch queue
	// drains in this order (Section VI-A's "optimal object retrieval order
	// according to the current set of queries").
	urgency int64
}

// nodeMetrics holds the node's pre-resolved histograms so per-event code
// never touches a registry map or lock. Every field is nil (a no-op) when
// the node was built without a registry. Counts are not here: the
// registry reads them from the node (collect).
type nodeMetrics struct {
	fetchLatency   *metrics.Histogram
	resolveLatency *metrics.Histogram
	decisionAge    *metrics.Histogram
	convergence    *metrics.Histogram
	batchSize      *metrics.Histogram
}

// newNodeMetrics resolves the node's histograms once. A nil registry
// yields all-nil instruments.
func newNodeMetrics(r *metrics.Registry) nodeMetrics {
	return nodeMetrics{
		fetchLatency:   r.Histogram("query.fetch_latency_s", metrics.LatencyBuckets()),
		resolveLatency: r.Histogram("query.resolve_latency_s", metrics.LatencyBuckets()),
		decisionAge:    r.Histogram("query.decision_age_s", metrics.LatencyBuckets()),
		convergence:    r.Histogram("membership.convergence_s", metrics.LatencyBuckets()),
		batchSize:      r.Histogram("batch.size", metrics.LinearBuckets(1, 1, 16)),
	}
}

// collect reports the node's counts to its registry at snapshot time
// (metrics.Registry.Collect): every tagged Stats field, the batching
// layer's frames saved, failovers, both caches' Stats and the interest
// table's counts — every name every time, zeros included, so a snapshot's
// key set does not depend on what happened.
func (n *Node) collect(emit func(name string, v int64)) {
	n.mu.Lock()
	st, failovers := n.stats, n.failovers
	caches := [2]cache.Stats{n.store.Stats(), n.labels.Stats()}
	inserts, expiries := n.interest.inserts, n.interest.expiries
	n.mu.Unlock()

	v := reflect.ValueOf(&st).Elem()
	for _, m := range statMetrics {
		emit(m.name, v.Field(m.field).Int())
	}
	emit("batch.frames_saved", int64(st.BatchedMsgs-st.BatchesSent))
	emit("retry.failovers", failovers)
	for i, names := range cacheMetrics {
		c := &caches[i]
		for j, v := range [...]int64{c.Hits, c.Misses, c.StaleDrops, c.Evictions} {
			emit(names[j], v)
		}
	}
	emit("interest.inserts", inserts)
	emit("interest.expiries", expiries)
}

// statMetric is a Stats field tagged with a metric name: the name and the
// field's index.
type statMetric struct {
	name  string
	field int
}

// statMetrics lists the tagged Stats fields in field order, read off the
// type once.
var statMetrics = func() (out []statMetric) {
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("metric"); name != "" {
			out = append(out, statMetric{name, i})
		}
	}
	return out
}()

// cacheMetrics names the content store's and the label cache's counts, in
// collect's order: hits, misses, stale drops, evictions.
var cacheMetrics = [2][4]string{
	{"cache.hits", "cache.misses", "cache.stale_drops", "cache.evictions"},
	{"labels.hits", "labels.misses", "labels.stale_drops", "labels.evictions"},
}

// Node is one Athena node.
type Node struct {
	mu sync.Mutex

	id        string
	tr        transport.Transport
	router    Router
	timers    Timers
	stopper   StopTimers // timers, when they can be stopped (arm)
	choices   choices    // the scheme's selection, order and label sharing
	dir       *Directory
	meta      boolexpr.MetaTable
	annotator *annotate.Machine
	authority *trust.Authority
	signer    trust.Signer
	policy    *trust.Policy
	desc      *object.Descriptor

	store    *cache.Store
	labels   *cache.LabelCache // read through labelCache
	interest *InterestTable
	// labelKeys is authority.Replacements() when labels was last read.
	labelKeys uint64
	// audit checks, as they happen, the fleet invariants a chaos run
	// cannot read off the node at a checkpoint; nil outside one (chaos.go).
	audit *chaosAudit
	// trace records query spans; nil when tracing is off.
	trace *trace.Recorder

	queries      map[string]*localQuery // the unrecorded queries issued here, by id
	live         []*localQuery          // the same queries, sorted by id
	sentRecently map[sentKey]time.Time  // in-flight window end (duplicateInFlight)

	fetchQ   []queuedRequest
	draining bool // a drain of fetchQ is scheduled

	lastSample *object.Object
	version    uint64
	querySeq   int

	sequentialWindow int
	retryBandwidth   float64
	disableRetries   bool
	criticalPrefix   names.Name
	sensorNoise      float64

	// The parts that are on, each owning its state: data-plane batching
	// (coalesce.go), live membership (membership.go;
	// flooded heartbeats or SWIM, swim.go) and the sharded directory
	// (sharding.go). Nil is off, and is tested where a frame, a send or a
	// public call enters, not inside the handlers.
	coalesce *coalescer
	member   *membership
	shard    *shardClient

	// selectSources' scratch, reset per call (callers hold n.mu): the
	// coverable labels and the priced candidate pool.
	coverable []string
	pool      []cover.Source

	reg     *metrics.Registry
	m       nodeMetrics
	stats   Stats
	results []QueryResult
	onDone  func(QueryResult)

	// failovers counts sources a query gave up on after maxRetries
	// timeouts ("retry.failovers"). It is not a Stats field because Stats
	// is what the dump's node object and /statusz print.
	failovers int64
}

// New assembles a node and installs its transport handler.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" || cfg.Transport == nil || cfg.Router == nil || cfg.Timers == nil {
		return nil, errors.New("athena: ID, Transport, Router and Timers are required")
	}
	if cfg.Directory == nil {
		return nil, errors.New("athena: Directory is required")
	}
	if cfg.Authority == nil || cfg.Policy == nil {
		return nil, errors.New("athena: Authority and Policy are required")
	}
	if !cfg.Scheme.valid() {
		return nil, fmt.Errorf("athena: unknown scheme %v", cfg.Scheme)
	}
	if cfg.SequentialWindow <= 0 {
		cfg.SequentialWindow = 4
	}
	if cfg.RetryBandwidth <= 0 {
		cfg.RetryBandwidth = 50_000
	}
	if cfg.GossipFanout > 0 && cfg.HeartbeatInterval <= 0 {
		return nil, errors.New("athena: GossipFanout requires HeartbeatInterval")
	}
	if cfg.Shards > 0 {
		if cfg.GossipFanout <= 0 {
			return nil, errors.New("athena: Shards requires gossip membership (set GossipFanout)")
		}
		if cfg.ShardReplicas <= 0 {
			cfg.ShardReplicas = 3
		}
	}
	n := &Node{
		id:               cfg.ID,
		tr:               cfg.Transport,
		router:           cfg.Router,
		timers:           cfg.Timers,
		choices:          schemeChoices[cfg.Scheme].choices,
		dir:              cfg.Directory,
		meta:             cfg.Meta,
		authority:        cfg.Authority,
		signer:           cfg.Signer,
		policy:           cfg.Policy,
		desc:             cfg.Descriptor,
		store:            cache.NewStore(cfg.CacheBytes),
		labels:           cache.NewLabelCache(),
		labelKeys:        cfg.Authority.Replacements(),
		interest:         NewInterestTable(interestTTL),
		queries:          make(map[string]*localQuery),
		sentRecently:     make(map[sentKey]time.Time),
		sequentialWindow: cfg.SequentialWindow,
		retryBandwidth:   cfg.RetryBandwidth,
		disableRetries:   cfg.DisableRetries,
		criticalPrefix:   cfg.CriticalPrefix,
		sensorNoise:      cfg.SensorNoise,
		trace:            cfg.Trace,
	}
	n.stopper, _ = cfg.Timers.(StopTimers)
	if cfg.CoalesceWindow > 0 {
		n.coalesce = &coalescer{window: cfg.CoalesceWindow, budget: coalesceBudget, queues: make(map[string]*sendQueue)}
	}
	n.reg = cfg.Metrics
	n.m = newNodeMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		n.dir.Instrument(cfg.Metrics.Gauge("directory.version"))
		cfg.Metrics.Collect(n.collect)
	}
	if cfg.World != nil {
		n.annotator = annotate.NewMachine(cfg.World)
	}
	if cfg.HeartbeatInterval > 0 {
		n.member = newMembership(cfg)
		// Make sure our own stream is advertised under a sequence number we
		// own, so Leave/Rejoin can order later updates.
		if n.desc != nil {
			if seq, present, _ := n.dir.Known(n.id); present {
				n.member.adSeq = seq
			} else {
				n.member.adSeq = 1
				n.dir.Advertise(*n.desc, n.member.adSeq)
			}
		}
		if cfg.Shards > 0 {
			n.shard = &shardClient{
				router: NewShardRouter(cfg.ID, cfg.Shards, cfg.ShardReplicas, shardCacheSize, cfg.Meta),
				ver:    ^uint64(0),
				retry:  n.shardRetry,
			}
			// Until the first refresh the router's nil snapshot keeps every
			// payload; the first gossip tick thins the replica down to the
			// shards this node owns.
			n.dir.SetRetention(n.shard.router.Keep)
		}
		// The protocol loop runs on the node's timers, so the first round
		// happens after construction (and, over TCP, after peers are added).
		n.timers.AfterArg(0, memberTick, n)
	}
	cfg.Transport.SetHandler(n.handleMessage)
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.id }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Results returns the outcomes of locally originated queries so far.
func (n *Node) Results() []QueryResult {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]QueryResult(nil), n.results...)
}

// OnQueryDone installs a callback fired when a local query reaches a
// terminal status.
func (n *Node) OnQueryDone(fn func(QueryResult)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onDone = fn
}

// PendingQueries counts local queries that have not reached a terminal
// status.
func (n *Node) PendingQueries() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.tr.Clock().Now()
	pending := 0
	for _, q := range n.live {
		if q.engine.Step(now) == core.Pending {
			pending++
		}
	}
	return pending
}

func (n *Node) now() time.Time { return n.tr.Clock().Now() }

// labelCache returns the node's label cache, emptied first if an
// annotator's key has been replaced since it was last read: the cache
// holds only records authenticated under the keys current when they were
// admitted (admitLabel), and serves them without verifying them again, so
// it may hold none that would fail under the current key. Callers hold
// n.mu.
func (n *Node) labelCache() *cache.LabelCache {
	if r := n.authority.Replacements(); r != n.labelKeys {
		n.labelKeys = r
		n.labels.Reset()
	}
	return n.labels
}

// liveFrom returns the position in n.live at which id sorts, and whether
// the query there has that id. Callers hold n.mu.
func (n *Node) liveFrom(id string) (int, bool) {
	return slices.BinarySearchFunc(n.live, id, func(q *localQuery, id string) int {
		return strings.Compare(q.engine.ID(), id)
	})
}

// liveAfter returns the unrecorded query that follows id in string order,
// nil past the last one: `for q := n.liveAfter(""); q != nil; q =
// n.liveAfter(q.engine.ID())` visits every live query. The order is fixed
// because visiting schedules sends and timers, and any other order would
// move which messages the seeded loss draws land on. Looking the position
// up afresh each step keeps the walk right when the body records q, or,
// through a nested delivery, any other query. Callers hold n.mu.
func (n *Node) liveAfter(id string) *localQuery {
	i, found := n.liveFrom(id)
	if found {
		i++
	}
	if i == len(n.live) {
		return nil
	}
	return n.live[i]
}

// DebugQueries renders the state of the live local queries, for diagnostics.
// Queries (n.live is sorted by id) and their outstanding fetches are listed
// in sorted order so the dump is stable run to run.
func (n *Node) DebugQueries() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	out := ""
	for _, q := range n.live {
		inflight := make([]string, 0, q.inFlight)
		for obj, r := range q.reqs {
			if r.inFlight {
				inflight = append(inflight, fmt.Sprintf("%s@%s", obj, r.at.Format("15:04:05")))
			}
		}
		sort.Strings(inflight)
		out += fmt.Sprintf("%s status=%v unknown=%v outstanding=%v expr=%s\n",
			q.engine.ID(), q.engine.Step(now), q.engine.UnknownLabels(now), inflight, q.engine.Expr())
	}
	return out
}

// QueryInit issues a decision query at this node (the paper's Query_Init):
// it plans retrieval per the node's scheme and starts fetching evidence.
func (n *Node) QueryInit(expr boolexpr.DNF, deadline time.Duration) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(expr.Terms) == 0 {
		return "", errors.New("athena: empty decision expression")
	}
	n.querySeq++
	id := n.id + "/q" + strconv.Itoa(n.querySeq)
	now := n.now()
	abs := now.Add(deadline)
	v := n.dir.View()

	q := &localQuery{
		engine: core.NewEngineWithPlan(id, expr, abs, n.meta, n.planFor(expr)),
		issued: now,
		reqs:   make(map[string]objReq),
	}
	if n.choices.order != orderValidity {
		q.batch = &batchTable{}
	}
	for _, l := range q.engine.Labels() {
		if v := n.meta.Get(l).Validity; v > 0 && (q.minValidity == 0 || v < q.minValidity) {
			q.minValidity = v
		}
	}
	n.trace.Event(n.id, id, trace.Plan, now, "")
	if n.choices.sel == selectCover {
		q.selected = n.selectSources(v, id, q.engine.Labels())
		if n.trace.On() {
			n.trace.Event(n.id, id, trace.Select, now, strings.Join(q.selected, ","))
		}
	}
	n.queries[id] = q
	at, _ := n.liveFrom(id)
	n.live = slices.Insert(n.live, at, q)
	n.stats.QueriesIssued++

	// Deadline watchdog.
	q.watchdog = n.arm(deadline+time.Millisecond, func() { n.whenLive(id, n.recordIfTerminal) })

	n.pump(q)
	return id, nil
}

// arm runs fn after d on the node's timers and returns the timer, nil
// when they cannot stop one. Every timer guarding a query or a pending
// upstream request is armed here, and its handle is kept beside what it
// guards, so the timer is stopped when that is settled.
func (n *Node) arm(d time.Duration, fn func()) Stopper {
	if n.stopper != nil {
		return n.stopper.AfterStop(d, fn)
	}
	n.timers.After(d, fn)
	return nil
}

// whenLive is how a timer comes back to a local query, and the one place
// a timer looks one up: under n.mu, act runs on query id, unless it has
// been recorded meanwhile. A recorded query is gone from n.queries, so what
// is still armed for it finds nothing and stops; a timer holds the id,
// never the query. (act is only called, so a func literal passed here stays
// on the caller's stack: a timer costs the one closure handed to After.)
func (n *Node) whenLive(id string, act func(*localQuery)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q, ok := n.queries[id]; ok {
		act(q)
	}
}

// planFor builds the evaluation plan per scheme: decision-driven schemes
// order terms by short-circuit efficiency and literals by longest validity
// first; batch schemes use the greedy plan only for bookkeeping.
func (n *Node) planFor(expr boolexpr.DNF) boolexpr.QueryPlan {
	if n.choices.order == orderValidity {
		return boolexpr.ValidityFirstPlan(expr, n.meta)
	}
	return boolexpr.GreedyPlan(expr, n.meta)
}

// pump advances a local query: issues whatever requests its scheme wants
// outstanding, schedules the next expiry recheck, and records terminal
// status. Callers hold n.mu.
func (n *Node) pump(q *localQuery) {
	now := n.now()
	n.trace.Event(n.id, q.engine.ID(), trace.Pump, now, "")
	if q.engine.Step(now) != core.Pending {
		n.recordIfTerminal(q)
		return
	}
	if v := n.dir.View(); q.batch != nil {
		n.pumpBatch(v, q, now)
	} else {
		n.pumpSequential(v, q, now)
	}
	// Come back at the engine's next load-bearing evidence expiry so stale
	// labels get refetched.
	if exp, ok := q.engine.NextExpiry(now); ok {
		n.pumpAt(q, expiryRecheck, exp, now)
	}
}

// pumpBatch (cmp/slt/lcf) keeps a request in flight for every unresolved
// label's object. The targets are rows of the view, in the order a walk of
// the directory gives: unknown labels in plan order, cmp taking a label's
// every candidate row (rowsFor) in source order and slt/lcf the one
// sourceFor picks, each object once, at its first source.
func (n *Node) pumpBatch(v *View, q *localQuery, now time.Time) {
	t := q.batch
	t.nextStamp(len(v.byName))
	targets := t.targets[:0]
	id, labels := q.engine.ID(), q.engine.Labels()
	q.engine.EachUnknown(now, func(l int) {
		label := labels[l]
		if n.choices.sel == selectCover {
			if r := n.sourceFor(v, q, label); r != nil {
				targets = t.take(targets, r)
			}
			return
		}
		for _, r := range n.rowsFor(v, id, label) {
			targets = t.take(targets, r)
		}
	})
	t.targets = targets
	if n.choices.order == orderCost {
		slices.SortStableFunc(targets, func(a, b row) int {
			return cmp.Compare(a.desc.Size, b.desc.Size)
		})
	}
	for i := range targets {
		if q.inFlight >= batchWindow {
			break
		}
		d := &targets[i].desc
		obj := d.Name.String()
		if q.reqs[obj].inFlight {
			continue
		}
		n.requestObject(q, d.Source, obj, d.Labels, d.Size, now)
	}
}

// batchTable is what a batch-scheme query keeps between pumps: per object
// of the view, the stamp of the last pump that made it a target — a pump
// takes an object once, at its first source — and the pump's target
// scratch. A stamp is only ever compared with the current pump's, so a
// stamp left from an earlier view never matches. A query's table is
// touched only under its node's n.mu.
type batchTable struct {
	stamp   uint32
	stamps  []uint32 // by row obj
	targets []row
}

// nextStamp starts a pump over a view of objs objects: no object is a
// target of it yet.
func (t *batchTable) nextStamp(objs int) {
	t.stamp++
	if t.stamp == 0 { // wrapped: no object may still carry last time round's stamp
		clear(t.stamps)
		t.stamp = 1
	}
	if len(t.stamps) < objs {
		t.stamps = append(t.stamps, make([]uint32, objs-len(t.stamps))...)
	}
}

// take appends a copy of r to targets unless its object is already one.
// An overlay row whose object the view lacks is matched by name against
// the pump's other such targets.
func (t *batchTable) take(targets []row, r *row) []row {
	if r.obj < 0 {
		for i := range targets {
			if targets[i].obj < 0 && targets[i].desc.Name == r.desc.Name {
				return targets
			}
		}
	} else if t.stamps[r.obj] == t.stamp {
		return targets
	} else {
		t.stamps[r.obj] = t.stamp
	}
	return append(targets, *r)
}

// pumpSequential (lvf/lvfl) is the decision-driven retrieval schedule:
// evidence is fetched only for the course of action currently under
// evaluation, at most sequentialWindow transfers at a time, in the plan's
// order (longest validity first within the term). A falsifying label
// short-circuits the term and the next pump moves on to the next
// alternative.
func (n *Node) pumpSequential(v *View, q *localQuery, now time.Time) {
	expr := q.engine.Expr()
	plan := q.engine.Plan()
	for _, ti := range plan.TermOrder {
		if q.engine.TermValue(ti, now) != boolexpr.Unknown {
			continue // decided either way; not the active term
		}
		// Active term: keep up to sequentialWindow transfers in flight.
		for _, li := range plan.LiteralOrder[ti] {
			if q.inFlight >= n.sequentialWindow {
				return
			}
			if !q.engine.LiteralUnknown(ti, li, now) {
				continue
			}
			label := expr.Terms[ti].Literals[li].Label
			r := n.sourceFor(v, q, label)
			if n.sensorNoise > 0 {
				var retry time.Time
				r, retry = n.corrSource(v, q, label, now)
				if r == nil && !retry.IsZero() {
					// Every fresh sample already voted; try again once a
					// new sample can exist.
					n.pumpAt(q, sampleRetry, retry, now)
				}
			}
			if r == nil {
				continue // uncoverable (or awaiting fresh corroboration)
			}
			objName := r.desc.Name.String()
			if q.reqs[objName].inFlight {
				continue
			}
			n.requestObject(q, r.desc.Source, objName, r.desc.Labels, r.desc.Size, now)
		}
		return
	}
}

// The purposes a pump is armed for: the recheck at the next evidence expiry
// (pump), and the retry once a fresh sample can exist (pumpSequential).
const (
	expiryRecheck = iota
	sampleRetry
)

// pumpAt arms a pump of q just past the given instant, once per instant
// per purpose. Callers hold n.mu.
func (n *Node) pumpAt(q *localQuery, purpose int, at, now time.Time) {
	if q.armed[purpose].at.Equal(at) {
		return // already armed
	}
	// A pump armed for another instant stays armed: its firing still pumps.
	// The instant is the mark's generation: a superseded timer's firing
	// leaves the newest mark be, so the pump it runs does not arm that
	// instant a second time, on either clock.
	id := q.engine.ID()
	q.armed[purpose] = timed{at: at, timer: n.arm(at.Sub(now)+time.Millisecond, func() {
		n.whenLive(id, func(q *localQuery) {
			if q.armed[purpose].at.Equal(at) {
				q.armed[purpose] = timed{}
			}
			n.pump(q)
		})
	})}
}

// requestObject enqueues a fetch of source's object on behalf of q. The
// object's name, the labels it evidences and its size are its descriptor's,
// which every caller has just looked up. Callers hold n.mu.
func (n *Node) requestObject(q *localQuery, source, objName string, labels []string, size int64, now time.Time) {
	// The request's labels are the query labels this object can resolve
	// and that are still unknown, in the descriptor's order.
	want := q.engine.Wanted(labels, now)
	if len(want) == 0 {
		return
	}
	r, was := q.step(objName, reqSend, 0)
	if was {
		return
	}
	if r.sends > 1 {
		n.stats.Refetches++
	}
	n.stats.RequestsSent++
	n.fetchQ = append(n.fetchQ, queuedRequest{
		req: &ObjectRequest{
			QueryID:    q.engine.ID(),
			Origin:     n.id,
			Object:     objName,
			SourceNode: source,
			Labels:     want,
		},
		urgency: n.queryUrgency(q, now).UnixNano(),
	})
	// Recovery timer: if no answer arrives (lost request or data,
	// overload), take the request out of flight so the next pump asks
	// again — with exponential backoff across attempts, and an alternate
	// source once this one exhausts its retries. With retries disabled
	// this degrades to the single fixed-timeout safety net.
	id, send := q.engine.ID(), r.sends
	timeout := requestTimeout
	if !n.disableRetries {
		timeout = n.retryDelay(r.attempts, size)
	}
	r.at, r.source, r.labels = now, source, labels
	r.timer = n.arm(timeout, func() {
		n.whenLive(id, func(q *localQuery) {
			lapsed, current := q.step(objName, reqTimeout, send)
			if !current {
				return
			}
			if !n.disableRetries {
				n.stats.RequestTimeouts++
				n.trace.Event(n.id, id, trace.Retry, n.now(), "timeout")
				if lapsed.attempts > maxRetries && !q.suspect[source] {
					q.suspectSource(source)
					n.failovers++
					n.trace.Event(n.id, id, trace.Retry, n.now(), "failover")
				}
			}
			n.pump(q)
		})
	})
	q.reqs[objName] = r
	n.kick()
}

// retryDelay is the backoff delay before attempt's retry: retryInterval
// scaled by retryBackoff^attempt (capped at requestTimeout), plus a
// size-proportional allowance so a large object still serializing over a
// slow multi-hop path is not declared lost while making progress. Callers
// hold n.mu.
func (n *Node) retryDelay(attempt int, size int64) time.Duration {
	d := retryInterval
	for i := 0; i < attempt; i++ {
		d *= retryBackoff
		if d >= requestTimeout {
			d = requestTimeout
			break
		}
	}
	if size > 0 && n.retryBandwidth > 0 {
		d += time.Duration(float64(size) / n.retryBandwidth * float64(time.Second))
	}
	return d
}

// sourceFor picks the row covering label for query q by the pick rule —
// the query's selected set first, then any covering source, cheapest
// first — steering around sources whose requests kept timing out (the
// directory supplies the alternate next hop). When every covering source
// is suspect, the primary is retried: a struggling source beats none. The
// pick runs over wherever the label's candidates come from (rowsFor), and
// the row lives as long as they do. nil when nobody covers the label.
// Callers hold n.mu.
func (n *Node) sourceFor(v *View, q *localQuery, label string) *row {
	rows := n.rowsFor(v, q.engine.ID(), label)
	if len(q.suspect) > 0 {
		if r := pick(rows, q.selected, func(r *row) bool { return q.suspect[r.desc.Source] }); r != nil {
			return r
		}
	}
	return pick(rows, q.selected, nil)
}

// queryUrgency is the hierarchical priority key of ref [1]: the minimum
// of the query's deadline and the earliest expiration its evidence could
// have (now + the smallest validity interval among its labels, which
// QueryInit found — the meta table is not written after New). Callers hold
// n.mu.
func (n *Node) queryUrgency(q *localQuery, now time.Time) time.Time {
	u := q.engine.Deadline()
	if q.minValidity > 0 {
		if exp := now.Add(q.minValidity); exp.Before(u) {
			u = exp
		}
	}
	return u
}

// recordIfTerminal records a terminal query exactly once and drops it from
// the node: its timers still to fire, its requests still queued and any
// late answer find no query under its id and stop there. Callers hold
// n.mu.
func (n *Node) recordIfTerminal(q *localQuery) {
	id := q.engine.ID()
	if n.queries[id] != q {
		return // already recorded
	}
	status := q.engine.Step(n.now())
	if status == core.Pending {
		return
	}
	delete(n.queries, id)
	if at, found := n.liveFrom(id); found {
		n.live = slices.Delete(n.live, at, at+1)
	}
	// Every timer the query still holds would now find no query under its
	// id; stopped, none of them keeps the node's state alive until it fires.
	stop(q.watchdog)
	for _, p := range q.armed {
		stop(p.timer)
	}
	for _, r := range q.reqs {
		stop(r.timer)
	}
	switch status {
	case core.ResolvedTrue:
		n.stats.ResolvedTrue++
	case core.ResolvedFalse:
		n.stats.ResolvedFalse++
	case core.Expired:
		n.stats.Expired++
	}
	res := QueryResult{
		QueryID:  q.engine.ID(),
		Status:   status,
		Issued:   q.issued,
		Finished: q.engine.ResolvedAt(),
		Deadline: q.engine.Deadline(),
	}
	if status == core.Expired {
		res.Waiting = q.waiting(n.now())
	}
	if status.Resolved() {
		n.m.resolveLatency.ObserveDuration(res.Finished.Sub(res.Issued))
	}
	n.results = append(n.results, res)
	if n.audit != nil {
		n.audit.recorded(q, res)
	}
	if n.onDone != nil {
		cb := n.onDone
		n.timers.After(0, func() { cb(res) })
	}
}

// waiting is q's miss post-mortem at instant now (QueryResult.Waiting): its
// requests that cover a label it still wants, by object name, then each
// wanted label none of them covers. Callers hold n.mu.
func (q *localQuery) waiting(now time.Time) []Waiting {
	wanted := q.engine.UnknownLabels(now)
	objs := make([]string, 0, len(q.reqs))
	for obj := range q.reqs {
		objs = append(objs, obj)
	}
	sort.Strings(objs)
	var out []Waiting
	covered := make(map[string]bool, len(wanted))
	for _, obj := range objs {
		r := q.reqs[obj]
		cover := false
		for _, l := range r.labels {
			if slices.Contains(wanted, l) {
				cover, covered[l] = true, true
			}
		}
		if !cover {
			continue
		}
		w := Waiting{Object: obj, Source: r.source, Attempts: r.attempts, Sends: r.sends, Suspect: q.suspect[r.source]}
		if r.inFlight {
			w.InFlight = now.Sub(r.at)
		}
		out = append(out, w)
	}
	for _, l := range wanted {
		if !covered[l] {
			out = append(out, Waiting{Label: l})
		}
	}
	return out
}

// QueryEvery issues the decision expression periodically (Section IV-B:
// "other decisions may need to be done periodically"), starting
// immediately. Each firing is an independent query with the given
// deadline. The returned stop function cancels future firings (it never
// interrupts an in-flight query).
func (n *Node) QueryEvery(expr boolexpr.DNF, deadline, period time.Duration) (stop func(), err error) {
	if period <= 0 {
		return nil, errors.New("athena: period must be positive")
	}
	if len(expr.Terms) == 0 {
		return nil, errors.New("athena: empty decision expression")
	}
	stopped := false
	var fire func()
	fire = func() {
		n.mu.Lock()
		cancelled := stopped
		n.mu.Unlock()
		if cancelled {
			return
		}
		// Errors are impossible here (the expression was validated), but
		// surface defensively through the result stream by skipping.
		_, _ = n.QueryInit(expr, deadline)
		n.timers.After(period, fire)
	}
	n.timers.After(0, fire)
	return func() {
		n.mu.Lock()
		stopped = true
		n.mu.Unlock()
	}, nil
}
