package athena

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"athena/internal/annotate"
	"athena/internal/boolexpr"
	"athena/internal/cache"
	"athena/internal/core"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
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
// timers both satisfy it.
type Timers interface {
	// After runs fn after d (d <= 0 means as soon as possible).
	After(d time.Duration, fn func())
	// AfterArg runs fn(arg) after d. Hot paths pass a stored method value
	// and an already-allocated argument so no closure is built per timer;
	// the simulator's scheduler additionally recycles the event, since no
	// handle escapes.
	AfterArg(d time.Duration, fn func(arg any), arg any)
}

// Stats counts a node's activity.
type Stats struct {
	// QueriesIssued counts locally originated queries.
	QueriesIssued int
	// ResolvedTrue / ResolvedFalse / Expired count terminal statuses of
	// local queries.
	ResolvedTrue, ResolvedFalse, Expired int
	// RequestsSent counts object requests dispatched (first sends and
	// refetches).
	RequestsSent int
	// Refetches counts requests re-issued after evidence expired.
	Refetches int
	// Retransmits counts upstream requests re-forwarded by the interest
	// layer after a retry window lapsed without data.
	Retransmits int
	// RequestTimeouts counts origin-side request timeouts (the backoff
	// timer fired with the request still unanswered).
	RequestTimeouts int
	// DupSuppressed counts duplicate requests dropped because the object
	// was plausibly still in flight to the same neighbor.
	DupSuppressed int
	// CacheAnswers counts requests served from the local content store.
	CacheAnswers int
	// ApproxAnswers counts requests served by approximate name
	// substitution (a subset of CacheAnswers).
	ApproxAnswers int
	// LabelAnswers counts requests answered with cached label records.
	LabelAnswers int
	// PrefetchPushes counts background object pushes.
	PrefetchPushes int
	// AnnouncesSent counts QueryAnnounce frames this node put on a link,
	// as origin or relay; AnnounceDups counts the arrivals that found the
	// announce already seen here — frames the flood carried for nothing.
	AnnouncesSent int
	AnnounceDups  int
	// Annotations counts labels computed locally.
	Annotations int
	// RoutingDrops counts messages dropped for lack of a route.
	RoutingDrops int
	// HeartbeatsSent counts membership heartbeats originated here.
	HeartbeatsSent int
	// Evictions counts sources this node's failure detector evicted.
	Evictions int
	// SyncExchanges counts anti-entropy exchanges this node initiated.
	SyncExchanges int
	// PingsSent counts SWIM probes (direct, indirect requests, and relays)
	// originated here.
	PingsSent int
	// Suspicions counts probe targets that entered the suspect state here.
	Suspicions int
	// Refutations counts false-positive evictions of this node it refuted
	// by re-advertising with a bumped sequence number.
	Refutations int
	// ControlMsgs / ControlBytes count membership control-plane traffic
	// (heartbeats, adverts, leaves, syncs, pings/acks) sent or forwarded by
	// this node, in both flood and gossip mode.
	ControlMsgs  int
	ControlBytes int64
	// PlanCacheHits counts QueryInits served by the memoized query plan.
	PlanCacheHits int
	// ShardLookups counts routed label lookups this node issued (sharded
	// directory); ShardLookupHits counts query-path resolutions served from
	// the local lookup cache instead.
	ShardLookups    int
	ShardLookupHits int
	// ShardServed counts routed lookups this node answered as a shard
	// owner.
	ShardServed int
	// ShardReroutes counts lookup re-sends to an alternate replica (retry
	// timeouts and owner evictions).
	ShardReroutes int
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
	BatchBytesSaved int64
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
	// DisablePrefetch takes the node out of prefetching (ablation A2): it
	// neither pushes its object for others' queries nor announces its own
	// queries to solicit pushes. It still relays the announces that reach
	// it (it cannot know who lies beyond), and Prewarm, an explicit
	// solicitation, still floods.
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
	// CoalesceBytes is the per-neighbor byte budget that forces a flush
	// before the window expires (default 256 KiB when batching is on).
	CoalesceBytes int64
	// ApproxMinSimilarity enables approximate object substitution
	// (Section V-A): a cached object whose name similarity to the
	// requested one is at least this threshold may answer the request,
	// provided it covers at least one requested label. Zero disables.
	ApproxMinSimilarity float64
	// CriticalPrefix marks a critical part of the name space
	// (Section V-C): objects under this prefix get transmission priority
	// on priority-capable transports and are exempt from approximate
	// substitution. Zero value disables.
	CriticalPrefix names.Name
	// SensorNoise is the probability a single annotation misreads its
	// evidence (Section IV-B). When positive, labels are corroborated
	// across multiple evidence objects until ConfidenceTarget is reached.
	SensorNoise float64
	// ConfidenceTarget is the required posterior confidence for noisy
	// labels (default 0.95 when SensorNoise > 0).
	ConfidenceTarget float64
	// HeartbeatInterval enables the live-membership layer: the node floods
	// a heartbeat every interval, evicts sources that miss HeartbeatMiss
	// beats, and reconciles directory replicas by anti-entropy. Zero (the
	// default) keeps the directory static — the pre-membership behavior.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is the failure detector's tolerance in missed
	// heartbeat intervals before a silent source is evicted (default 3).
	HeartbeatMiss int
	// GossipFanout switches the membership layer from flooded heartbeats
	// to SWIM-style peer-sampled gossip: each heartbeat interval the node
	// pings this many sampled members directly instead of flooding,
	// suspicion is confirmed through gossipIndirect intermediaries before
	// eviction, and membership updates ride as bounded piggyback buffers
	// on ping/ack instead of being flooded. Zero (the default) keeps the
	// flood protocol. Requires HeartbeatInterval > 0.
	GossipFanout int
	// SuspectTimeout is how long an unacknowledged probe target stays
	// suspect before eviction (default 3×HeartbeatMiss heartbeat
	// intervals). Unlike the flood detector — whose redundant delivery
	// paths refresh liveness from any direction — a sampled probe rides
	// one route, so the window must also cover worst-case head-of-line
	// blocking behind bulk object transfers on that route. Suspicion is
	// cleared by any contact, suspects are re-probed every period, and
	// the window self-dilates under local congestion (Lifeguard-style
	// local health multiplier), so shorter values are safe on idle or
	// fast networks.
	SuspectTimeout time.Duration
	// GossipSeed seeds the deterministic peer-sampling RNG; the node's own
	// id is mixed in, so one scenario seed serves a whole fleet.
	GossipSeed int64
	// Shards enables the sharded directory: advertisements are partitioned
	// by name prefix into this many shards, each replicated on
	// ShardReplicas nodes chosen by rendezvous hashing over the live
	// membership view. Non-owned payloads are thinned out of the local
	// replica and label lookups outside the owned shards are routed to a
	// shard owner. Zero (the default) keeps the full-replica directory —
	// the pre-sharding behavior, byte for byte. Requires gossip membership
	// (GossipFanout > 0).
	Shards int
	// ShardReplicas is the per-shard replication factor (default 3).
	ShardReplicas int
	// Metrics, when non-nil, mirrors the node's activity into the registry:
	// cache and interest-table counters, retry/failover counts, membership
	// events, directory version, and fetch-latency / decision-age
	// histograms. Nil keeps instrumentation disabled (every instrument is a
	// nil no-op; see internal/metrics).
	Metrics *metrics.Registry
}

// Fixed parameters of a node. Each was a Config field until it turned out
// that no caller — daemon, simulator, benchmark, experiment, example or
// test — had ever set it, so every recorded figure and golden was taken at
// exactly these values. One becomes a field again when two callers that
// exist need different values (DESIGN §5 item 10, "Options").
const (
	// prefetchHops is the prefetch radius: a source pushes for a query only
	// when the announce reached it over at most this many links, so that
	// is also exactly how far an announce is flooded.
	prefetchHops = 2
	// prefetchDelay paces background pushes: the prefetch queue drains one
	// task per delay, behind foreground traffic.
	prefetchDelay = 250 * time.Millisecond
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
)

type localQuery struct {
	engine      *core.Engine
	issued      time.Time
	minValidity time.Duration        // smallest positive validity among the labels; 0 = none (queryUrgency)
	selected    []string             // selected source ids (slt/lcf/lvf/lvfl)
	outstanding map[string]time.Time // object name -> request send time
	requested   map[string]bool      // object names requested at least once
	attempts    map[string]int       // object name -> origin-side timeout count
	suspect     map[string]bool      // sources that exhausted their retries
	batch       bool
	armed       [2]time.Time          // the instant a pump is armed for, by purpose (pumpAt)
	corr        map[string]*corrState // label -> corroboration (noisy mode)
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

// nodeMetrics holds the node's pre-resolved instruments so per-event code
// never touches a registry map or lock. Every field is nil (a no-op) when
// the node was built without a registry.
type nodeMetrics struct {
	retryTimeouts    *metrics.Counter
	failovers        *metrics.Counter
	retransmits      *metrics.Counter
	heartbeats       *metrics.Counter
	evictions        *metrics.Counter
	syncRounds       *metrics.Counter
	pings            *metrics.Counter
	suspicions       *metrics.Counter
	refutes          *metrics.Counter
	ctlMsgs          *metrics.Counter
	ctlBytes         *metrics.Counter
	fetchLatency     *metrics.Histogram
	resolveLatency   *metrics.Histogram
	decisionAge      *metrics.Histogram
	convergence      *metrics.Histogram
	batchSize        *metrics.Histogram
	batchFramesSaved *metrics.Counter
	batchBytesSaved  *metrics.Counter
}

// newNodeMetrics resolves the node's instruments once. A nil registry
// yields all-nil instruments.
func newNodeMetrics(r *metrics.Registry) nodeMetrics {
	return nodeMetrics{
		retryTimeouts:    r.Counter("retry.timeouts"),
		failovers:        r.Counter("retry.failovers"),
		retransmits:      r.Counter("retry.retransmits"),
		heartbeats:       r.Counter("membership.heartbeats_sent"),
		evictions:        r.Counter("membership.evictions"),
		syncRounds:       r.Counter("membership.sync_rounds"),
		pings:            r.Counter("membership.pings_sent"),
		suspicions:       r.Counter("membership.suspicions"),
		refutes:          r.Counter("membership.refutations"),
		ctlMsgs:          r.Counter("membership.ctl_msgs"),
		ctlBytes:         r.Counter("membership.ctl_bytes"),
		fetchLatency:     r.Histogram("query.fetch_latency_s", metrics.LatencyBuckets()),
		resolveLatency:   r.Histogram("query.resolve_latency_s", metrics.LatencyBuckets()),
		decisionAge:      r.Histogram("query.decision_age_s", metrics.LatencyBuckets()),
		convergence:      r.Histogram("membership.convergence_s", metrics.LatencyBuckets()),
		batchSize:        r.Histogram("batch.size", metrics.LinearBuckets(1, 1, 16)),
		batchFramesSaved: r.Counter("batch.frames_saved"),
		batchBytesSaved:  r.Counter("batch.bytes_saved"),
	}
}

// cacheMetrics resolves the counter set mirroring one cache's Stats under
// the given name prefix ("cache" for the content store, "labels" for the
// label cache).
func cacheMetrics(r *metrics.Registry, prefix string) cache.Metrics {
	return cache.Metrics{
		Hits:       r.Counter(prefix + ".hits"),
		ApproxHits: r.Counter(prefix + ".approx_hits"),
		Misses:     r.Counter(prefix + ".misses"),
		StaleDrops: r.Counter(prefix + ".stale_drops"),
		Evictions:  r.Counter(prefix + ".evictions"),
	}
}

// Node is one Athena node.
type Node struct {
	mu sync.Mutex

	id        string
	tr        transport.Transport
	router    Router
	timers    Timers
	scheme    Scheme
	dir       *Directory
	meta      boolexpr.MetaTable
	annotator annotate.Annotator
	authority *trust.Authority
	signer    trust.Signer
	policy    *trust.Policy
	desc      *object.Descriptor

	store    *cache.Store
	labels   *cache.LabelCache
	interest *InterestTable

	queries      map[string]*localQuery // the unrecorded queries issued here, by id
	live         []*localQuery          // the same queries, sorted by id
	seenAnnounce map[string]time.Time   // announced query -> its deadline (markAnnounced)
	sentRecently map[string]time.Time   // object|neighbor -> in-flight window end

	fetchQ   []queuedRequest
	draining bool // a drain of fetchQ is scheduled

	lastSample *object.Object
	version    uint64
	querySeq   int

	sequentialWindow int
	retryBandwidth   float64
	disableRetries   bool
	approxMinSim     float64
	criticalPrefix   names.Name
	sensorNoise      float64
	confTarget       float64

	// The parts that are on, each owning its state: data-plane batching
	// (coalesce.go), prefetch (prefetch.go), live membership (membership.go;
	// flooded heartbeats or SWIM, swim.go) and the sharded directory
	// (sharding.go). Nil is off, and is tested where a frame, a send or a
	// public call enters, not inside the handlers.
	coalesce *coalescer
	prefetch *prefetcher
	member   *membership
	shard    *shardClient

	// Query-plan memoization: planFor's output keyed by expression text,
	// valid while the directory version is unchanged (directory changes are
	// the only event that re-prices planning metadata at runtime).
	planCache map[string]cachedPlan

	reg     *metrics.Registry
	m       nodeMetrics
	stats   Stats
	results []QueryResult
	onDone  func(QueryResult)
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
	if cfg.SequentialWindow <= 0 {
		cfg.SequentialWindow = 4
	}
	if cfg.RetryBandwidth <= 0 {
		cfg.RetryBandwidth = 50_000
	}
	if cfg.SensorNoise > 0 && cfg.ConfidenceTarget <= 0 {
		cfg.ConfidenceTarget = 0.95
	}
	if cfg.CoalesceWindow > 0 && cfg.CoalesceBytes <= 0 {
		cfg.CoalesceBytes = 256 << 10
	}
	if cfg.HeartbeatInterval > 0 && cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = 3
	}
	if cfg.GossipFanout > 0 {
		if cfg.HeartbeatInterval <= 0 {
			return nil, errors.New("athena: GossipFanout requires HeartbeatInterval")
		}
		if cfg.SuspectTimeout <= 0 {
			cfg.SuspectTimeout = 3 * time.Duration(cfg.HeartbeatMiss) * cfg.HeartbeatInterval
		}
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
		scheme:           cfg.Scheme,
		dir:              cfg.Directory,
		meta:             cfg.Meta,
		authority:        cfg.Authority,
		signer:           cfg.Signer,
		policy:           cfg.Policy,
		desc:             cfg.Descriptor,
		store:            cache.NewStore(cfg.CacheBytes),
		labels:           cache.NewLabelCache(),
		interest:         NewInterestTable(interestTTL),
		queries:          make(map[string]*localQuery),
		seenAnnounce:     make(map[string]time.Time),
		sentRecently:     make(map[string]time.Time),
		sequentialWindow: cfg.SequentialWindow,
		retryBandwidth:   cfg.RetryBandwidth,
		disableRetries:   cfg.DisableRetries,
		approxMinSim:     cfg.ApproxMinSimilarity,
		criticalPrefix:   cfg.CriticalPrefix,
		sensorNoise:      cfg.SensorNoise,
		confTarget:       cfg.ConfidenceTarget,
	}
	if cfg.CoalesceWindow > 0 {
		n.coalesce = &coalescer{window: cfg.CoalesceWindow, budget: cfg.CoalesceBytes, queues: make(map[string]*sendQueue)}
	}
	if !cfg.DisablePrefetch {
		n.prefetch = &prefetcher{pushedVersions: make(map[string]uint64)}
	}
	n.reg = cfg.Metrics
	n.m = newNodeMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		n.store.Instrument(cacheMetrics(cfg.Metrics, "cache"))
		n.labels.Instrument(cacheMetrics(cfg.Metrics, "labels"))
		n.interest.Instrument(cfg.Metrics.Counter("interest.inserts"), cfg.Metrics.Counter("interest.expiries"))
		n.dir.Instrument(cfg.Metrics.Gauge("directory.version"))
	}
	if cfg.World != nil {
		n.annotator = annotate.NewMachine(cfg.ID, cfg.World, 0, 0, nil)
	}
	if cfg.HeartbeatInterval > 0 {
		n.member = newMembership(cfg)
		// Make sure our own stream is advertised under a sequence number we
		// own, so Leave/Rejoin can order later updates.
		if n.desc != nil {
			if seq, ok := n.dir.Seq(n.id); ok && n.dir.Has(n.id) {
				n.member.adSeq = seq
			} else {
				n.member.adSeq = 1
				n.dir.Advertise(*n.desc, n.member.adSeq)
			}
		}
		if cfg.Shards > 0 {
			n.shard = &shardClient{
				router: NewShardRouter(cfg.ID, cfg.Shards, cfg.ShardReplicas, shardCacheSize),
				ver:    ^uint64(0),
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
		inflight := make([]string, 0, len(q.outstanding))
		for obj, at := range q.outstanding {
			inflight = append(inflight, fmt.Sprintf("%s@%s", obj, at.Format("15:04:05")))
		}
		sort.Strings(inflight)
		out += fmt.Sprintf("%s status=%v unknown=%v outstanding=%v expr=%s\n",
			q.engine.ID(), q.engine.Step(now), q.engine.UnknownLabels(now), inflight, q.engine.Expr())
	}
	return out
}

// QueryInit issues a decision query at this node (the paper's Query_Init):
// it plans retrieval per the node's scheme, floods the expression to
// neighbors for prefetching (unless DisablePrefetch), and starts fetching
// evidence.
func (n *Node) QueryInit(expr boolexpr.DNF, deadline time.Duration) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(expr.Terms) == 0 {
		return "", errors.New("athena: empty decision expression")
	}
	n.querySeq++
	id := fmt.Sprintf("%s/q%d", n.id, n.querySeq)
	now := n.now()
	abs := now.Add(deadline)
	exprText := expr.String()

	q := &localQuery{
		engine:      core.NewEngineWithPlan(id, expr, abs, n.meta, n.planFor(expr, exprText)),
		issued:      now,
		outstanding: make(map[string]time.Time),
		requested:   make(map[string]bool),
		attempts:    make(map[string]int),
		suspect:     make(map[string]bool),
		batch:       n.scheme == SchemeCMP || n.scheme == SchemeSLT || n.scheme == SchemeLCF,
		corr:        make(map[string]*corrState),
	}
	for _, l := range q.engine.Labels() {
		if v := n.meta.Get(l).Validity; v > 0 && (q.minValidity == 0 || v < q.minValidity) {
			q.minValidity = v
		}
	}
	if n.scheme != SchemeCMP {
		q.selected = n.selectSources(id, q.engine.Labels())
	}
	n.queries[id] = q
	at, _ := n.liveFrom(id)
	n.live = slices.Insert(n.live, at, q)
	n.stats.QueriesIssued++

	// Step (iv): share the decision structure with neighbors. The only use
	// a receiver has for it is prefetch, so a node that takes no part in
	// prefetch does not ask the fleet to carry it.
	if n.prefetch != nil {
		n.announce(id, exprText, abs, now)
	}

	// Deadline watchdog.
	n.timers.After(deadline+time.Millisecond, func() { n.whenLive(id, n.recordIfTerminal) })

	n.pump(q)
	return id, nil
}

// announce floods a decision expression within the prefetch radius, as
// its origin. Callers hold n.mu.
func (n *Node) announce(id, expr string, deadline, now time.Time) {
	n.markAnnounced(id, deadline, now)
	n.floodAnnounce(&QueryAnnounce{
		QueryID:  id,
		Origin:   n.id,
		Expr:     expr,
		Deadline: deadline,
		TTL:      prefetchHops,
	}, "")
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

// cachedPlan is one memoized planFor result, valid while the directory
// version it was computed under still holds.
type cachedPlan struct {
	plan boolexpr.QueryPlan
	dirv uint64
}

// planFor builds the evaluation plan per scheme: decision-driven schemes
// order terms by short-circuit efficiency and literals by longest validity
// first; batch schemes use the greedy plan only for bookkeeping. Plans are
// memoized by expression text — recurring queries (QueryEvery) re-plan an
// identical expression every period otherwise — and invalidated when the
// directory version moves (membership churn re-prices the metadata the
// plan was built from). Cached plans are shared across engines; the engine
// only reads them.
func (n *Node) planFor(expr boolexpr.DNF, key string) boolexpr.QueryPlan {
	dirv := n.dir.Version()
	if c, ok := n.planCache[key]; ok && c.dirv == dirv {
		n.stats.PlanCacheHits++
		return c.plan
	}
	plan := boolexpr.GreedyPlan(expr, n.meta)
	if n.scheme == SchemeLVF || n.scheme == SchemeLVFL {
		for ti, t := range expr.Terms {
			order := plan.LiteralOrder[ti]
			validity := make([]time.Duration, len(t.Literals))
			for li := range t.Literals {
				validity[li] = n.meta.Get(t.Literals[li].Label).Validity
			}
			sort.SliceStable(order, func(a, b int) bool {
				return validity[order[a]] > validity[order[b]]
			})
		}
	}
	if n.planCache == nil || len(n.planCache) >= 256 {
		n.planCache = make(map[string]cachedPlan)
	}
	n.planCache[key] = cachedPlan{plan: plan, dirv: dirv}
	return plan
}

// pump advances a local query: issues whatever requests its scheme wants
// outstanding, schedules the next expiry recheck, and records terminal
// status. Callers hold n.mu.
func (n *Node) pump(q *localQuery) {
	now := n.now()
	if q.engine.Step(now) != core.Pending {
		n.recordIfTerminal(q)
		return
	}
	if q.batch {
		n.pumpBatch(q, now)
	} else {
		n.pumpSequential(q, now)
	}
	// Come back at the engine's next load-bearing evidence expiry so stale
	// labels get refetched.
	if exp, ok := q.engine.NextExpiry(now); ok {
		n.pumpAt(q, expiryRecheck, exp, now)
	}
}

// pumpBatch (cmp/slt/lcf) keeps a request in flight for every unresolved
// label's object.
func (n *Node) pumpBatch(q *localQuery, now time.Time) {
	type target struct {
		source string
		obj    string
		labels []string // the descriptor's, for the request
		size   int64    // the descriptor's, for the LCF sort and the retry allowance
	}
	var targets []target
	seen := make(map[string]bool)
	add := func(src string) {
		desc, ok := n.descriptorOf(src)
		if !ok {
			return
		}
		obj := desc.Name.String()
		if !seen[obj] {
			seen[obj] = true
			targets = append(targets, target{source: src, obj: obj, labels: desc.Labels, size: desc.Size})
		}
	}
	for _, label := range q.engine.UnknownLabels(now) {
		if n.scheme == SchemeCMP {
			srcs, cached := n.candidates(q.engine.ID(), label)
			if !cached {
				srcs = n.dir.SourcesFor(label)
			}
			for _, src := range srcs {
				add(src)
			}
		} else {
			if src := n.sourceFor(q, label); src != "" {
				add(src)
			}
		}
	}
	if n.scheme == SchemeLCF {
		sort.SliceStable(targets, func(a, b int) bool {
			return targets[a].size < targets[b].size
		})
	}
	for _, t := range targets {
		if len(q.outstanding) >= batchWindow {
			break
		}
		if _, inFlight := q.outstanding[t.obj]; inFlight {
			continue
		}
		n.requestObject(q, t.source, t.obj, t.labels, t.size, now)
	}
}

// pumpSequential (lvf/lvfl) is the decision-driven retrieval schedule:
// evidence is fetched only for the course of action currently under
// evaluation, at most sequentialWindow transfers at a time, in the plan's
// order (longest validity first within the term). A falsifying label
// short-circuits the term and the next pump moves on to the next
// alternative.
func (n *Node) pumpSequential(q *localQuery, now time.Time) {
	expr := q.engine.Expr()
	plan := q.engine.Plan()
	for _, ti := range plan.TermOrder {
		if q.engine.TermValue(ti, now) != boolexpr.Unknown {
			continue // decided either way; not the active term
		}
		// Active term: keep up to sequentialWindow transfers in flight.
		for _, li := range plan.LiteralOrder[ti] {
			if len(q.outstanding) >= n.sequentialWindow {
				return
			}
			if !q.engine.LiteralUnknown(ti, li, now) {
				continue
			}
			label := expr.Terms[ti].Literals[li].Label
			src := n.sourceFor(q, label)
			if n.sensorNoise > 0 {
				var retry time.Time
				src, retry = n.corrSource(q, label, now)
				if src == "" && !retry.IsZero() {
					// Every fresh sample already voted; try again once a
					// new sample can exist.
					n.pumpAt(q, sampleRetry, retry, now)
				}
			}
			if src == "" {
				continue // uncoverable (or awaiting fresh corroboration)
			}
			desc, ok := n.descriptorOf(src)
			if !ok {
				continue
			}
			objName := desc.Name.String()
			if _, inFlight := q.outstanding[objName]; inFlight {
				continue
			}
			n.requestObject(q, src, objName, desc.Labels, desc.Size, now)
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
	if q.armed[purpose].Equal(at) {
		return // already armed
	}
	q.armed[purpose] = at
	id := q.engine.ID()
	n.timers.After(at.Sub(now)+time.Millisecond, func() {
		n.whenLive(id, func(q *localQuery) {
			q.armed[purpose] = time.Time{}
			n.pump(q)
		})
	})
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
	if q.requested[objName] {
		n.stats.Refetches++
	}
	q.requested[objName] = true
	q.outstanding[objName] = now
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
	// overload), clear the in-flight mark so the next pump re-requests —
	// with exponential backoff across attempts, and switching to an
	// alternate source once this one exhausts its retries. With retries
	// disabled this degrades to the single fixed-timeout safety net. The
	// timestamp check ignores answers that arrived and were re-requested.
	id := q.engine.ID()
	timeout := requestTimeout
	if !n.disableRetries {
		timeout = n.retryDelay(q.attempts[objName], size)
	}
	n.timers.After(timeout, func() {
		n.whenLive(id, func(q *localQuery) {
			if at, inFlight := q.outstanding[objName]; !inFlight || !at.Equal(now) {
				return
			}
			delete(q.outstanding, objName)
			if !n.disableRetries {
				n.stats.RequestTimeouts++
				n.m.retryTimeouts.Inc()
				q.attempts[objName]++
				if q.attempts[objName] > maxRetries && !q.suspect[source] {
					q.suspect[source] = true
					n.m.failovers.Inc()
				}
			}
			n.pump(q)
		})
	})
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

// sourceFor picks the source covering label for query q — the query's
// selected set first, then any covering source, cheapest first — steering
// around sources whose requests kept timing out (the directory supplies
// the alternate next hop). When every covering source is suspect, the
// primary is retried: a struggling source beats none. The pick runs over
// wherever the label's candidates come from. Callers hold n.mu.
func (n *Node) sourceFor(q *localQuery, label string) string {
	srcs, cached := n.candidates(q.engine.ID(), label)
	pick := func(exclude map[string]bool) string {
		if cached {
			return n.pickCached(srcs, q.selected, exclude)
		}
		return n.dir.SourceForLabelExcluding(label, q.selected, exclude)
	}
	if len(q.suspect) > 0 {
		if s := pick(q.suspect); s != "" {
			return s
		}
	}
	return pick(nil)
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
	if status.Resolved() {
		n.m.resolveLatency.ObserveDuration(res.Finished.Sub(res.Issued))
	}
	n.results = append(n.results, res)
	if n.onDone != nil {
		cb := n.onDone
		n.timers.After(0, func() { cb(res) })
	}
}

// Prewarm floods a decision expression that is *anticipated* but not yet
// issued (Section VIII: workflow anticipation): nearby sources prefetch
// the evidence toward this node in the background, so a subsequent
// QueryInit for the same logic finds it cached. No local query state is
// created. Requires prefetching to be enabled somewhere in the network to
// have any effect.
func (n *Node) Prewarm(expr boolexpr.DNF) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(expr.Terms) == 0 {
		return errors.New("athena: empty decision expression")
	}
	n.querySeq++
	now := n.now()
	n.announce(fmt.Sprintf("%s/warm%d", n.id, n.querySeq), expr.String(), now.Add(time.Hour), now)
	return nil
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
