package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"athena"
	iathena "athena/internal/athena"
	"athena/internal/metrics"
	"athena/internal/netsim"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
)

// The traced run cannot use NewCluster: the decorators have to be in each
// node's Config before the node exists. wireCluster assembles the same
// deployment from the same public pieces (netsim, transport.NewSim,
// iathena.New) with a decorator on every interface, and run issues the
// scenario's decisions the way Cluster.Run does. The traced run then
// requires the outcome to equal NewCluster's for the same seed, which is
// what shows this wiring is the program's and not a lookalike.
//
// Only the ClusterConfig fields the workloads set are carried over; the
// rest keep NewCluster's defaults, which are repeated here.
const (
	clusterCacheBytes   = 8 << 20
	clusterIssueStagger = 5 * time.Second
	clusterRunSlack     = 5 * time.Second
	clusterMaxEvents    = 50_000_000
)

type wiredCluster struct {
	scenario *athena.Scenario
	cfg      athena.ClusterConfig
	net      *netsim.Network
	kernel   *simclock.Kernel
	nodes    map[string]*iathena.Node
	reg      *metrics.Registry
	tr       *tracer
}

// schedTimers and laneTimers adapt the two engines to iathena.Timers.
type schedTimers struct{ s *simclock.Scheduler }

func (t schedTimers) After(d time.Duration, fn func())                { t.s.After(d, fn) }
func (t schedTimers) AfterArg(d time.Duration, fn func(any), arg any) { t.s.AfterCall(d, fn, arg) }

type laneTimers struct{ l *simclock.Lane }

func (t laneTimers) After(d time.Duration, fn func())                { t.l.After(d, fn) }
func (t laneTimers) AfterArg(d time.Duration, fn func(any), arg any) { t.l.AfterCall(d, fn, arg) }

func wireCluster(s *athena.Scenario, cfg athena.ClusterConfig, tr *tracer) (*wiredCluster, error) {
	c := &wiredCluster{scenario: s, cfg: cfg, nodes: make(map[string]*iathena.Node), reg: metrics.NewRegistry(), tr: tr}
	var sched *simclock.Scheduler
	if cfg.Workers > 0 {
		c.kernel = simclock.NewKernel(s.Epoch, simclock.KernelOpts{Workers: cfg.Workers, Seed: uint64(s.Config.Seed)})
		c.net = netsim.NewParallel(c.kernel)
	} else {
		sched = simclock.New(s.Epoch)
		c.net = netsim.New(sched)
	}
	if err := s.BuildNetwork(c.net); err != nil {
		return nil, err
	}
	shared := iathena.NewDirectory(s.Sources)
	auth := trust.NewAuthority()
	for i := range s.Placements {
		id := s.Placements[i].ID
		desc := s.Sources[i]
		dir := shared
		if cfg.HeartbeatInterval > 0 {
			dir = iathena.NewDirectory(s.Sources)
		}
		var timers iathena.Timers = schedTimers{sched}
		if c.kernel != nil {
			timers = laneTimers{c.net.LaneOf(id)}
		}
		t := tr.node(id)
		node, err := iathena.New(iathena.Config{
			ID:                id,
			Transport:         traceTransport(transport.NewSim(c.net, id), t),
			Router:            &tracedRouter{inner: c.net, t: t},
			Timers:            &tracedTimers{inner: timers, t: t},
			Scheme:            cfg.Scheme,
			Directory:         dir,
			Meta:              s.Meta,
			World:             &tracedWorld{inner: s.World, t: t},
			Authority:         auth,
			Signer:            auth.Register(id, []byte("athena-secret-"+id)),
			Policy:            trust.TrustAll(),
			Descriptor:        &desc,
			CacheBytes:        clusterCacheBytes,
			DisablePrefetch:   true,
			CoalesceWindow:    cfg.CoalesceWindow,
			HeartbeatInterval: cfg.HeartbeatInterval,
			GossipFanout:      cfg.GossipFanout,
			GossipSeed:        s.Config.Seed,
			Shards:            cfg.Shards,
			ShardReplicas:     cfg.ShardReplicas,
			Metrics:           c.reg,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
		c.nodes[id] = node
	}
	if cfg.HeartbeatInterval > 0 {
		c.net.OnChurn(func(id string, up bool) {
			if node, ok := c.nodes[id]; ok && up {
				node.Rejoin()
			}
		})
	}
	return c, nil
}

// run mirrors Cluster.Run: the same seeded issue offsets, the same churn
// schedule, the same horizon. Each QueryInit goes through a span.
func (c *wiredCluster) run() error {
	s := c.scenario
	rng := rand.New(rand.NewSource(s.Config.Seed + 0x5eed))
	var lastDeadline time.Time
	for _, qs := range s.Queries {
		node, ok := c.nodes[qs.Origin]
		if !ok {
			return fmt.Errorf("query origin %q has no node", qs.Origin)
		}
		offset := time.Duration(rng.Int63n(int64(clusterIssueStagger)))
		if at := s.Epoch.Add(offset).Add(qs.Deadline); at.After(lastDeadline) {
			lastDeadline = at
		}
		t, expr, deadline := c.tr.node(qs.Origin), qs.Expr, qs.Deadline
		err := c.net.AtNode(qs.Origin, s.Epoch.Add(offset), func() {
			if _, err := tracedQueryInit(t, node, expr, deadline); err != nil {
				panic(fmt.Sprintf("bench: QueryInit: %v", err)) // Cluster.Run panics here too: the scenario generator never emits an empty expression
			}
		})
		if err != nil {
			return err
		}
	}
	if c.cfg.ChurnEvents > 0 {
		start := s.Epoch.Add(clusterIssueStagger)
		window := lastDeadline.Sub(start) - c.cfg.ChurnOutage
		if window <= 0 {
			window = clusterIssueStagger
		}
		c.net.ScheduleChurn(s.Config.Seed+0xc4c4, c.cfg.ChurnEvents, start, window, c.cfg.ChurnOutage)
	}
	return c.net.RunUntil(lastDeadline.Add(clusterRunSlack), clusterMaxEvents)
}

// runWired is runScenario through the benchmark's own wiring, traced.
func runWired(cfg athena.WorkloadConfig, cc athena.ClusterConfig, tr *tracer) (simRun, *wiredCluster, error) {
	var r simRun
	s, err := athena.GenerateScenario(cfg)
	if err != nil {
		return r, nil, fmt.Errorf("scenario seed %d: %w", cfg.Seed, err)
	}
	c, err := wireCluster(s, cc, tr)
	if err != nil {
		return r, nil, fmt.Errorf("scenario seed %d: %w", cfg.Seed, err)
	}
	u0 := readUsage()
	t0 := wallNow()
	err = c.run()
	r.wall = wallNow().Sub(t0)
	r.cpu = readUsage().cpu - u0.cpu
	if err != nil {
		return r, nil, fmt.Errorf("scenario seed %d: %w", cfg.Seed, err)
	}
	st := c.net.Stats()
	r.sent = st.MessagesSent
	r.out.TotalBytes = st.BytesSent
	if c.kernel != nil {
		r.events = c.kernel.Executed()
	}
	r.collectResults(c.nodes, true)
	return r, c, nil
}

func (w simWorkload) traced(p params, log io.Writer) (outcome, error) {
	k := w.tracedScenarios
	if p.smoke {
		k = 1
	}
	var (
		o           outcome
		tr          = newTracer()
		plain, wire simRun // sums over the k scenarios, untraced and traced
		stats       iathena.Stats
		net         netsim.Stats
		snap        metrics.Snapshot
	)
	for i := 0; i < k; i++ {
		cfg := w.scenarioConfig(p, i)
		ref, err := runScenario(cfg, w.cluster)
		if err != nil {
			return o, err
		}
		got, c, err := runWired(cfg, w.cluster, tr)
		if err != nil {
			return o, err
		}
		if !ref.same(got) {
			o.wrong = append(o.wrong, fmt.Sprintf("scenario seed %d: the traced deployment diverged from NewCluster's: %v, traced %v", cfg.Seed, ref, got))
		}
		plain.add(ref)
		wire.add(got)
		for _, n := range c.nodes {
			addStats(&stats, n.Stats())
		}
		ns := c.net.Stats()
		net.MessagesDropped += ns.MessagesDropped
		net.MessagesLost += ns.MessagesLost
		net.BytesSent += ns.BytesSent
		net.BytesDelivered += ns.BytesDelivered
		addSnapshot(&snap, c.reg.Snapshot())
	}
	o.attempted = plain.out.QueriesIssued
	o.failed = plain.missing
	if o.attempted == 0 {
		return o, fmt.Errorf("%s: traced scenarios issued no decision", w.name)
	}

	per := float64(o.attempted)
	vals, spans, err := layerMetrics(w.name, p, tr, stats, snap, per, log)
	if err != nil {
		return o, err
	}
	// Worker-seconds of the traced runs, less the time spent inside node
	// entries: event heap, barriers and idle lanes.
	lanes := time.Duration(max(1, w.cluster.Workers))
	vals["simclock.engine_self_us"] = micros(lanes*wire.wall-time.Duration(spans.topTotal)) / per
	vals["simclock.events"] = float64(wire.events) / per
	if plain.events > 0 {
		vals["simclock.events_per_s"] = float64(plain.events) / plain.wall.Seconds()
	}
	vals["netsim.send_us"] = micros(time.Duration(spans.total[spanSend])) / per
	vals["netsim.send_calls"] = float64(spans.calls[spanSend]) / per
	vals["netsim.delivered_share"] = ratio(float64(net.BytesDelivered), float64(net.BytesSent))
	vals["netsim.dropped"] = float64(net.MessagesDropped) / per
	vals["netsim.lost"] = float64(net.MessagesLost) / per
	vals["netsim.decision_p99_ms"] = percentile(plain.latencies, 0.99)
	vals["bench.trace_overhead"] = ratio(float64(wire.cpu), float64(plain.cpu)) - 1
	o.vals = vals
	return o, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
