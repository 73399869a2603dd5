package athena

import (
	"errors"
	"fmt"
	"time"

	"athena/internal/annotate"
	iathena "athena/internal/athena"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
)

// Naming and source-advertisement types.
type (
	// ContentName is a hierarchical semantic name
	// (e.g. /city/market/south/cam1).
	ContentName = names.Name
	// SourceDescriptor advertises a sensor's object stream: name,
	// typical size, validity interval, and the labels it evidences.
	SourceDescriptor = object.Descriptor
	// GroundTruth supplies the true value of labels over time; machine
	// annotators read it through the evidence's sample instant.
	GroundTruth = annotate.GroundTruth
)

// ParseName parses a hierarchical content name.
func ParseName(s string) (ContentName, error) { return names.Parse(s) }

// MustParseName is ParseName that panics on error.
func MustParseName(s string) ContentName { return names.MustParse(s) }

// SimNetwork is a deterministic simulated Athena deployment built by hand
// — the public testbed for experimenting with the system outside the
// paper's fixed grid scenario. Build links first, then nodes, then issue
// queries and Run.
type SimNetwork struct {
	net   *netsim.Network
	auth  *trust.Authority
	start time.Time
	reg   *metrics.Registry

	descriptors []SourceDescriptor
	nodeCfgs    []SimNodeConfig
	nodes       map[string]*Node
	built       bool
	touched     bool

	hbInterval time.Duration
	hbMiss     int
	gFanout    int
	gSeed      int64
	shards     int
	shardRF    int
}

// NewSimNetwork creates an empty simulated network starting at the given
// virtual instant.
func NewSimNetwork(start time.Time) *SimNetwork {
	return &SimNetwork{
		net:   netsim.NewAt(start, 0, 0),
		auth:  trust.NewAuthority(),
		start: start,
		reg:   metrics.NewRegistry(),
		nodes: make(map[string]*Node),
	}
}

// SetWorkers switches the simulation from one lane shared by every node
// to a kernel lane per node, executed by the given number of workers
// (values <= 1 run the lanes single-threaded). seed feeds the kernel's
// canonical merge-order tie-break; the outcome is a pure function of the
// scenario and seed, never of the worker count or GOMAXPROCS. Must be
// called before the first AddLink. Not calling it keeps the shared lane,
// whose global schedule order is what the recorded goldens pin;
// same-instant events may order differently between the two layouts.
func (s *SimNetwork) SetWorkers(workers int, seed int64) error {
	if s.built {
		return errors.New("athena: SetWorkers after Build")
	}
	if s.touched {
		return errors.New("athena: SetWorkers must be called before AddLink")
	}
	s.net = netsim.NewAt(s.start, max(workers, 1), seed)
	return nil
}

// Now returns the current virtual time.
func (s *SimNetwork) Now() time.Time { return s.net.Now() }

// AddLink connects two node ids (creating them as network endpoints if
// needed) with a duplex link of the given bandwidth (bytes/second) and
// one-way latency.
func (s *SimNetwork) AddLink(a, b string, bandwidth float64, latency time.Duration) error {
	if s.built {
		return errors.New("athena: AddLink after Build")
	}
	s.touched = true
	s.net.AddNode(a, nil)
	s.net.AddNode(b, nil)
	return s.net.AddLink(a, b, netsim.LinkConfig{Bandwidth: bandwidth, Latency: latency})
}

// SimNodeConfig describes one node for AddNode.
type SimNodeConfig struct {
	// ID is the node identifier (must appear in at least one AddLink).
	ID string
	// Scheme is the retrieval strategy (default SchemeLVFL).
	Scheme Scheme
	// Source advertises this node's sensor stream (nil for pure
	// forwarders/consumers).
	Source *SourceDescriptor
	// World is the ground truth this node's annotator reads. Required
	// for nodes that issue queries or host sensors.
	World GroundTruth
	// Policy decides whose shared labels this node accepts (default:
	// trust all).
	Policy *trust.Policy
	// CacheBytes bounds the content store (default 16 MB).
	CacheBytes int64
	// DisablePrefetch takes the node out of background prefetching: it
	// neither pushes for others' queries nor announces its own.
	DisablePrefetch bool
	// SensorNoise is the per-annotation error rate; positive values turn
	// on corroboration to ConfidenceTarget (Section IV-B).
	SensorNoise float64
	// ConfidenceTarget is the corroboration confidence (default 0.95
	// when SensorNoise > 0).
	ConfidenceTarget float64
	// ApproxMinSimilarity enables approximate object substitution
	// (Section V-A); zero disables.
	ApproxMinSimilarity float64
	// CriticalPrefix marks the critical name space (Section V-C).
	CriticalPrefix ContentName
	// DisableRetries turns off the timeout/retransmission recovery layer
	// on this node (useful to contrast behaviour under injected faults).
	DisableRetries bool
}

// TrustAllPolicy accepts labels from every verified annotator.
func TrustAllPolicy() *trust.Policy { return trust.TrustAll() }

// TrustOnlyPolicy accepts labels only from the listed annotator node ids.
func TrustOnlyPolicy(annotators ...string) *trust.Policy {
	return trust.TrustOnly(annotators...)
}

// TrustNonePolicy rejects all shared labels, forcing raw-object retrieval.
func TrustNonePolicy() *trust.Policy { return trust.TrustNone() }

// AddNode registers a node specification. Nodes are constructed on Build
// (or the first Run), after all sources are known to the directory.
func (s *SimNetwork) AddNode(cfg SimNodeConfig) error {
	if s.built {
		return errors.New("athena: AddNode after Build")
	}
	if cfg.ID == "" {
		return errors.New("athena: node ID required")
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = SchemeLVFL
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 16 << 20
	}
	if cfg.Policy == nil {
		cfg.Policy = trust.TrustAll()
	}
	if cfg.Source != nil {
		s.descriptors = append(s.descriptors, *cfg.Source)
	}
	s.nodeCfgs = append(s.nodeCfgs, cfg)
	return nil
}

// EnableMembership turns on the live-membership layer for every node
// built afterwards: each node gets its own directory replica (instead of
// the shared static index), floods heartbeats every interval, evicts
// sources that miss `miss` consecutive beats, re-sources their in-flight
// fetches, and reconciles replicas by anti-entropy after partitions heal.
// Nodes returning from a SetNodeDown/ScheduleNodeOutage churn re-announce
// themselves automatically. Must be called before Build/Run.
func (s *SimNetwork) EnableMembership(interval time.Duration, miss int) error {
	if s.built {
		return errors.New("athena: EnableMembership after Build")
	}
	if interval <= 0 {
		return errors.New("athena: membership interval must be positive")
	}
	s.hbInterval = interval
	s.hbMiss = miss
	return nil
}

// EnableGossip switches the membership layer from flooded heartbeats to
// SWIM-style gossip: each heartbeat interval every node probes `fanout`
// sampled peers, failure detection goes through indirect ping-req plus a
// suspicion timeout, and membership updates ride as piggybacked deltas on
// the probe traffic instead of flooding. Peer sampling is seeded from
// `seed` so runs stay deterministic. Requires EnableMembership; must be
// called before Build/Run.
func (s *SimNetwork) EnableGossip(fanout int, seed int64) error {
	if s.built {
		return errors.New("athena: EnableGossip after Build")
	}
	if fanout <= 0 {
		return errors.New("athena: gossip fanout must be positive")
	}
	if s.hbInterval <= 0 {
		return errors.New("athena: EnableGossip requires EnableMembership")
	}
	s.gFanout = fanout
	s.gSeed = seed
	return nil
}

// EnableSharding partitions every node's directory replica into `shards`
// name-prefix shards, each replicated on `replicas` nodes chosen by
// rendezvous hashing over the live membership view. Nodes thin out
// payloads of shards they do not own and route label lookups to shard
// owners, so per-node directory memory and sync traffic stay proportional
// to the owned share instead of the whole fleet. Requires EnableGossip;
// must be called before Build/Run. Not calling it keeps the full-replica
// directory — the pre-sharding behavior.
func (s *SimNetwork) EnableSharding(shards, replicas int) error {
	if s.built {
		return errors.New("athena: EnableSharding after Build")
	}
	if shards <= 0 {
		return errors.New("athena: shard count must be positive")
	}
	if s.gFanout <= 0 {
		return errors.New("athena: EnableSharding requires EnableGossip")
	}
	s.shards = shards
	s.shardRF = replicas
	return nil
}

// Build constructs all registered nodes. Called implicitly by Run.
func (s *SimNetwork) Build() error {
	if s.built {
		return nil
	}
	dir := iathena.NewDirectory(s.descriptors)
	meta := iathena.PriceLabels(nil, s.descriptors)
	for _, cfg := range s.nodeCfgs {
		nodeDir := dir
		if s.hbInterval > 0 {
			nodeDir = iathena.NewDirectory(s.descriptors)
		}
		node, err := iathena.New(iathena.Config{
			ID:                  cfg.ID,
			Transport:           transport.NewSim(s.net, cfg.ID),
			Router:              s.net,
			Timers:              iathena.LaneTimers{Lane: s.net.LaneOf(cfg.ID)},
			Scheme:              cfg.Scheme,
			Directory:           nodeDir,
			Meta:                meta,
			World:               cfg.World,
			Authority:           s.auth,
			Signer:              s.auth.Register(cfg.ID, []byte("simnet-"+cfg.ID)),
			Policy:              cfg.Policy,
			Descriptor:          cfg.Source,
			CacheBytes:          cfg.CacheBytes,
			DisablePrefetch:     cfg.DisablePrefetch,
			SensorNoise:         cfg.SensorNoise,
			ConfidenceTarget:    cfg.ConfidenceTarget,
			ApproxMinSimilarity: cfg.ApproxMinSimilarity,
			CriticalPrefix:      cfg.CriticalPrefix,
			DisableRetries:      cfg.DisableRetries,
			HeartbeatInterval:   s.hbInterval,
			HeartbeatMiss:       s.hbMiss,
			GossipFanout:        s.gFanout,
			GossipSeed:          s.gSeed,
			Shards:              s.shards,
			ShardReplicas:       s.shardRF,
			Metrics:             s.reg,
		})
		if err != nil {
			return fmt.Errorf("athena: build node %s: %w", cfg.ID, err)
		}
		s.nodes[cfg.ID] = node
	}
	if s.hbInterval > 0 {
		s.net.OnChurn(func(id string, up bool) {
			if up {
				if node, ok := s.nodes[id]; ok {
					node.Rejoin()
				}
			}
		})
	}
	s.built = true
	return nil
}

// Node returns a built node by id.
func (s *SimNetwork) Node(id string) (*Node, error) {
	if err := s.Build(); err != nil {
		return nil, err
	}
	node, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("athena: unknown node %q", id)
	}
	return node, nil
}

// Run advances the simulation by d of virtual time, delivering messages
// and firing timers.
func (s *SimNetwork) Run(d time.Duration) error {
	if err := s.Build(); err != nil {
		return err
	}
	return s.net.RunUntil(s.net.Now().Add(d), 0)
}

// MetricsSnapshot is a detached point-in-time copy of a metrics registry:
// counter/gauge values plus latency and decision-age histograms.
type MetricsSnapshot = metrics.Snapshot

// Metrics returns a snapshot of the fleet-wide registry every node in the
// network reports into: cache hits and misses, retry and eviction
// counters, heartbeat traffic, and the query latency / decision-age
// histograms.
func (s *SimNetwork) Metrics() MetricsSnapshot { return s.reg.Snapshot() }

// BytesSent is the total bytes transmitted so far.
func (s *SimNetwork) BytesSent() int64 { return s.net.Stats().BytesSent }

// MessagesLost is the number of messages dropped by the fault-injection
// layer so far.
func (s *SimNetwork) MessagesLost() int64 { return s.net.Stats().MessagesLost }

// SeedFailures arms the deterministic fault-injection layer. Must be
// called before any positive loss probability is set; the same seed
// reproduces the same drop pattern.
func (s *SimNetwork) SeedFailures(seed int64) { s.net.SeedFailures(seed) }

// SetLinkLoss sets the per-message loss probability on the a<->b link.
func (s *SimNetwork) SetLinkLoss(a, b string, p float64) error {
	return s.net.SetLinkLoss(a, b, p)
}

// SetLoss sets the per-message loss probability on every link.
func (s *SimNetwork) SetLoss(p float64) error { return s.net.SetLoss(p) }

// SetLinkDown takes the a<->b link down (or back up). Messages sent over
// a down link are silently dropped, like a radio shadow.
func (s *SimNetwork) SetLinkDown(a, b string, down bool) error {
	return s.net.SetLinkDown(a, b, down)
}

// ScheduleLinkOutage takes the a<->b link down at the given virtual
// instant and restores it after outage.
func (s *SimNetwork) ScheduleLinkOutage(a, b string, at time.Time, outage time.Duration) error {
	return s.net.ScheduleLinkOutage(a, b, at, outage)
}

// SetNodeDown fails (or revives) a node: while down it neither sends nor
// receives.
func (s *SimNetwork) SetNodeDown(id string, down bool) error {
	return s.net.SetNodeDown(id, down)
}

// ScheduleNodeOutage fails the node at the given virtual instant and
// revives it after outage.
func (s *SimNetwork) ScheduleNodeOutage(id string, at time.Time, outage time.Duration) error {
	return s.net.ScheduleNodeOutage(id, at, outage)
}

// OnChurn registers a hook fired whenever a node changes up/down state.
func (s *SimNetwork) OnChurn(fn func(id string, up bool)) { s.net.OnChurn(fn) }
