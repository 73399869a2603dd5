package athena

import (
	"fmt"
	"math/rand"
	"time"

	"athena/internal/metrics"
	"athena/internal/netsim"
	"athena/internal/simclock"
	"athena/internal/trace"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/workload"
)

// ClusterConfig tunes a simulated Athena deployment.
type ClusterConfig struct {
	// Scheme is the retrieval strategy all nodes run.
	Scheme Scheme
	// CacheBytes bounds each node's content store (default 8 MB;
	// negative = unbounded).
	CacheBytes int64
	// TrustFraction is the fraction of nodes whose annotations everyone
	// accepts (1.0 = trust all, the Figure 2/3 setting; ablation A1
	// lowers it).
	TrustFraction float64
	// SensorNoise passes through to every node's Config (ablation A5).
	SensorNoise float64
	// CoalesceWindow enables data-plane batching on every node (ablation
	// A11): same-destination requests and data coalesce into
	// RequestBatch/DataBatch frames for up to CoalesceWindow or until the
	// node's byte budget is queued. Zero window (the default) keeps the
	// one-frame-per-message data plane, byte for byte.
	CoalesceWindow time.Duration
	// DisableRetries turns the recovery layer off on every node
	// (ablation A6 baseline).
	DisableRetries bool
	// LinkLoss injects the given per-message loss probability on every
	// link (ablation A6). Draws are seeded from the scenario seed, so
	// runs stay deterministic.
	LinkLoss float64
	// HeartbeatInterval enables the live-membership layer (ablation A7):
	// every node gets its own directory replica fed by advertisements,
	// floods heartbeats, evicts sources silent for heartbeatMiss beats,
	// re-sources their in-flight fetches, and reconciles replicas by
	// anti-entropy. Zero (the default) keeps the pre-membership shared
	// static directory.
	HeartbeatInterval time.Duration
	// GossipFanout switches the membership layer from flooded heartbeats
	// to SWIM-style gossip (ablation A8): each interval every node probes
	// this many sampled peers, failure detection goes through indirect
	// ping-req and a suspicion timeout, and membership updates ride as
	// piggybacked deltas on the probe traffic. Zero (the default) keeps
	// the flood protocol. Requires HeartbeatInterval > 0. Suspects are
	// evicted after suspectPeriods silent intervals.
	GossipFanout int
	// Shards partitions every node's directory replica into this many
	// label shards (ablation A9): each shard is replicated on
	// ShardReplicas nodes chosen by rendezvous hashing, non-owned payloads
	// are thinned out, and label lookups outside the owned shards are
	// routed to shard owners. Zero (the default) keeps the full-replica
	// directory. Requires GossipFanout > 0.
	Shards int
	// ShardReplicas is the per-shard replication factor (default 3).
	ShardReplicas int
	// ChurnEvents schedules this many deterministic node outages across
	// the run (drawn from the scenario seed). Zero disables churn.
	ChurnEvents int
	// ChurnOutage is each churned node's downtime (default 30s).
	ChurnOutage time.Duration
	// Codec, when set, puts a codec in the simulator's loop
	// (transport.NewSimCodec): every receiver gets Decode(Encode(m)), not
	// the sender's m. Outcomes must be byte-identical to a run without it
	// (internal/wire's codec; athena-sim -fig dump -codec).
	Codec transport.Codec
	// Trace, when set, records every node's query spans and the network's
	// link timings of each query frame (internal/trace). Tracing never
	// changes a run's outcome.
	Trace *trace.Recorder
	// Deprecated: ignored; bench/ compiles against it. Every node runs
	// on the kernel's one lane.
	Workers int
}

// Fixed parameters of a run: ClusterConfig fields until, like node.go's,
// nobody turned out to set them. bench/simwire.go carries the same three.
const (
	// issueStagger spreads query issuance uniformly over this window so
	// all queries do not start in lockstep.
	issueStagger = 5 * time.Second
	// runSlack is extra simulated time after the last deadline before the
	// run stops.
	runSlack = 5 * time.Second
	// maxEvents bounds the simulation (RunUntil fails with ErrHorizon).
	maxEvents = 50_000_000
)

// Cluster is a fully wired simulated Athena deployment running a
// workload scenario.
type Cluster struct {
	Scenario *workload.Scenario
	// Kernel is the kernel the network runs on.
	Kernel    *simclock.Kernel
	Network   *netsim.Network
	Nodes     map[string]*Node
	Authority *trust.Authority
	Directory *Directory
	// Metrics is the fleet registry shared by every node: each registers
	// its counts with it and pushes its histograms into it.
	Metrics *metrics.Registry

	cfg ClusterConfig
}

// NewCluster builds the deployment: network topology, one Athena node per
// placement, signing identities, trust policies, and the shared directory.
func NewCluster(s *workload.Scenario, cfg ClusterConfig) (*Cluster, error) {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 8 << 20
	}
	if cfg.TrustFraction == 0 {
		cfg.TrustFraction = 1
	}
	reg := metrics.NewRegistry()

	net := netsim.NewAt(s.Epoch)
	if err := s.BuildNetwork(net); err != nil {
		return nil, err
	}
	if cfg.LinkLoss > 0 {
		net.SeedFailures(s.Config.Seed + 0xfa17)
		if err := net.SetLoss(cfg.LinkLoss); err != nil {
			return nil, err
		}
	}
	dir := NewDirectory(s.Sources)
	auth := trust.NewAuthority()

	// Trusted-annotator set: the first TrustFraction of nodes (by index)
	// are universally trusted; others' labels are rejected by consumers.
	trusted := make([]string, 0, len(s.Placements))
	cut := int(cfg.TrustFraction * float64(len(s.Placements)))
	for i, p := range s.Placements {
		if i < cut {
			trusted = append(trusted, p.ID)
		}
	}
	policy := trust.TrustOnly(trusted...)
	if cfg.TrustFraction >= 1 {
		policy = trust.TrustAll()
	}

	c := &Cluster{
		Scenario:  s,
		Kernel:    net.Kernel(),
		Network:   net,
		Nodes:     make(map[string]*Node, len(s.Placements)),
		Authority: auth,
		Directory: dir,
		Metrics:   reg,
		cfg:       cfg,
	}
	for i := range s.Placements {
		p := s.Placements[i]
		desc := s.Sources[i]
		signer := auth.Register(p.ID, []byte("athena-secret-"+p.ID))
		// With membership on, every node maintains its own directory
		// replica (converged by gossip and anti-entropy); the static mode
		// shares one immutable-in-practice directory, as before.
		nodeDir := dir
		if cfg.HeartbeatInterval > 0 {
			nodeDir = NewDirectory(s.Sources)
		}
		node, err := New(Config{
			ID:                p.ID,
			Transport:         transport.NewSimCodec(net, p.ID, cfg.Codec),
			Router:            net,
			Timers:            LaneTimers{Lane: net.LaneOf(p.ID)},
			Scheme:            cfg.Scheme,
			Directory:         nodeDir,
			Meta:              s.Meta,
			World:             s.World,
			Authority:         auth,
			Signer:            signer,
			Policy:            policy,
			Descriptor:        &desc,
			CacheBytes:        cfg.CacheBytes,
			CoalesceWindow:    cfg.CoalesceWindow,
			SensorNoise:       cfg.SensorNoise,
			DisableRetries:    cfg.DisableRetries,
			HeartbeatInterval: cfg.HeartbeatInterval,
			GossipFanout:      cfg.GossipFanout,
			GossipSeed:        s.Config.Seed,
			Shards:            cfg.Shards,
			ShardReplicas:     cfg.ShardReplicas,
			Metrics:           reg,
			Trace:             cfg.Trace,
		})
		if err != nil {
			return nil, fmt.Errorf("athena: node %s: %w", p.ID, err)
		}
		c.Nodes[p.ID] = node
	}
	if cfg.Trace != nil {
		net.SetLinkTrace(linkTrace(cfg.Trace))
	}
	if cfg.HeartbeatInterval > 0 {
		// A node returning from an outage re-announces itself through the
		// same Rejoin path a daemon would use after reconnecting.
		net.OnChurn(func(id string, up bool) {
			if up {
				if node, ok := c.Nodes[id]; ok {
					node.Rejoin()
				}
			}
		})
	}
	return c, nil
}

// LaneTimers adapts the lane a node runs on (netsim.Network.LaneOf) to
// the Timers interface, so the node's callbacks run in order with every
// other event of the run.
type LaneTimers struct{ Lane *simclock.Lane }

var _ Timers = LaneTimers{}

// After implements Timers.
func (t LaneTimers) After(d time.Duration, fn func()) { t.Lane.After(d, fn) }

// AfterArg implements Timers on the lane's pooled no-handle events.
func (t LaneTimers) AfterArg(d time.Duration, fn func(any), arg any) { t.Lane.AfterCall(d, fn, arg) }

// Outcome aggregates a finished run.
type Outcome struct {
	// Scheme is the strategy that ran.
	Scheme Scheme
	// QueriesIssued and QueriesResolved give the Figure 2 resolution
	// ratio (resolved = a decision, true or false, was reached by the
	// deadline on fresh data).
	QueriesIssued, QueriesResolved int
	// ResolvedTrue / ResolvedFalse split the resolutions.
	ResolvedTrue, ResolvedFalse int
	// TotalBytes is the Figure 3 measurement: all bytes transmitted.
	TotalBytes int64
	// MeanLatency is the mean issue-to-decision latency of resolved
	// queries.
	MeanLatency time.Duration
	// Node aggregates per-node counters.
	Node Stats
	// Metrics is the fleet registry snapshot at the end of the run: cache
	// hit/miss/eviction counters, retry and failover counts, membership
	// events, and fetch-latency / decision-age histograms summed across all
	// nodes.
	Metrics metrics.Snapshot
}

// ResolutionRatio is resolved/issued (1 if nothing was issued).
func (o Outcome) ResolutionRatio() float64 {
	if o.QueriesIssued == 0 {
		return 1
	}
	return float64(o.QueriesResolved) / float64(o.QueriesIssued)
}

// CacheHitRatio is the fleet content-store hit ratio (1 when the cache saw
// no lookups).
func (o Outcome) CacheHitRatio() float64 {
	return o.Metrics.Ratio("cache.hits", "cache.misses")
}

// RetryCount sums the fleet's recovery-layer events: origin-side request
// timeouts and interest-layer retransmissions.
func (o Outcome) RetryCount() int64 {
	return o.Metrics.Counter("retry.timeouts") + o.Metrics.Counter("retry.retransmits")
}

// Run issues every scenario query (staggered deterministically), runs the
// simulation until all deadlines plus slack have passed, and aggregates
// the outcome.
func (c *Cluster) Run() (Outcome, error) {
	stop, err := c.issue()
	if err != nil {
		return Outcome{}, err
	}
	if err := c.Network.RunUntil(stop, maxEvents); err != nil {
		return Outcome{}, fmt.Errorf("athena: simulation horizon: %w", err)
	}
	return c.outcome(), nil
}

// issue schedules every scenario query (staggered deterministically) and
// the configured churn, and returns the instant the run stops: the last
// deadline plus slack.
func (c *Cluster) issue() (stop time.Time, err error) {
	rng := rand.New(rand.NewSource(c.Scenario.Config.Seed + 0x5eed))
	var lastDeadline time.Time
	for _, qs := range c.Scenario.Queries {
		node, ok := c.Nodes[qs.Origin]
		if !ok {
			return time.Time{}, fmt.Errorf("athena: query origin %q has no node", qs.Origin)
		}
		offset := time.Duration(rng.Int63n(int64(issueStagger)))
		deadlineAt := c.Scenario.Epoch.Add(offset).Add(qs.Deadline)
		if deadlineAt.After(lastDeadline) {
			lastDeadline = deadlineAt
		}
		expr := qs.Expr
		dl := qs.Deadline
		err := c.Network.AtNode(qs.Origin, c.Scenario.Epoch.Add(offset), func() {
			if _, err := node.QueryInit(expr, dl); err != nil {
				panic(fmt.Sprintf("athena: QueryInit: %v", err))
			}
		})
		if err != nil {
			return time.Time{}, fmt.Errorf("athena: query injection: %w", err)
		}
	}

	if c.cfg.ChurnEvents > 0 {
		outage := c.cfg.ChurnOutage
		if outage <= 0 {
			outage = 30 * time.Second
		}
		start := c.Scenario.Epoch.Add(issueStagger)
		window := lastDeadline.Sub(start) - outage
		if window <= 0 {
			window = issueStagger
		}
		c.Network.ScheduleChurn(c.Scenario.Config.Seed+0xc4c4, c.cfg.ChurnEvents, start, window, outage)
	}

	return lastDeadline.Add(runSlack), nil
}

// outcome aggregates the run so far.
func (c *Cluster) outcome() Outcome {
	out := Outcome{Scheme: c.cfg.Scheme, TotalBytes: c.Network.Stats().BytesSent, Metrics: c.Metrics.Snapshot()}
	var latencySum time.Duration
	for _, node := range c.Nodes {
		out.Node.Add(node.Stats())
		for _, r := range node.Results() {
			if r.Status.Resolved() {
				latencySum += r.Finished.Sub(r.Issued)
			}
		}
	}
	out.QueriesIssued = out.Node.QueriesIssued
	out.ResolvedTrue, out.ResolvedFalse = out.Node.ResolvedTrue, out.Node.ResolvedFalse
	out.QueriesResolved = out.ResolvedTrue + out.ResolvedFalse
	if out.QueriesResolved > 0 {
		out.MeanLatency = latencySum / time.Duration(out.QueriesResolved)
	}
	return out
}
