package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"athena/internal/annotate"
	iathena "athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
)

// The socket fleet is a star over loopback TCP: a gateway, fleetSources
// sensor nodes and hostThreads consumers, each a full node wired the way
// cmd/athenad wires one (transport.NewTCP + wire.Codec{} + WallTimers +
// StaticRouter). Leaves only know the gateway, so every fetch crosses two
// sockets and the gateway's interest table. Nothing but a source keeps
// evidence (leafCacheBytes), so every decision goes to the wire.
const (
	fleetSources    = 8
	labelsPerSource = 2
	fleetLabels     = fleetSources * labelsPerSource
	// falseLabels of the fleetLabels labels are false: the 0.8 prior of
	// the Sec. VII world, held exactly so that runs with different seeds
	// see the same share of short-circuits.
	falseLabels    = 3
	decisionBudget = 5 * time.Second
	fleetScheme    = iathena.SchemeLVF
	leafCacheBytes = 1
	fleetValidity  = time.Minute
	// warmupDecisions per client are issued before timing starts and
	// count as set-up: they dial the sockets.
	warmupDecisions = 20
	// executions is how many times a run executes each fleet plan, on a
	// fresh fleet each time. The faster execution is the one measured.
	executions = 2
)

// tcpWorkload is a closed-loop socket workload: hostThreads clients, one
// per consumer node, each issuing its next decision when the previous one
// is decided. The unit of input is a fleet plan. An execution builds a
// fresh fleet for the plan, warms it up and times a fixed number of
// decisions; a node's cost per decision grows with the decisions it has
// already made, so that number is fixed and a run's length only changes
// the number of plans. As on the simulator, every plan is executed twice
// and the faster execution is the one measured.
type tcpWorkload struct {
	name string
	// Object sizes are a ladder of fleetSources steps from minSize to
	// maxSize bytes.
	minSize, maxSize int64
	plans            int // distinct fleet plans of a run at run_seconds
	decisions        int // timed decisions per client per execution
	tracedDecisions  int
}

var tcpWorkloads = []tcpWorkload{
	{
		// Every decision moves one to three objects of 100 KB to 1 MB
		// across two sockets: per-byte cost.
		name:            "tcp_fetch",
		minSize:         100_000,
		maxSize:         1_000_000,
		plans:           8,
		decisions:       500,
		tracedDecisions: 400,
	},
	{
		// The same fleet with objects of 64 to 960 bytes: every frame is
		// small, so what a decision pays is per message, not per byte.
		name:            "tcp_small",
		minSize:         64,
		maxSize:         960,
		plans:           24,
		decisions:       600,
		tracedDecisions: 600,
	},
}

func (w tcpWorkload) sized(p params) tcpWorkload {
	if p.smoke {
		w.decisions, w.tracedDecisions = 40, 40
	}
	return w
}

// staticWorld is a fixed ground truth.
type staticWorld map[string]bool

func (s staticWorld) LabelValue(label string, _ time.Time) bool { return s[label] }

// decision is one generated query and the answer the ground truth gives.
type decision struct {
	expr boolexpr.DNF
	want core.Status
}

// fleetPlan is everything a fleet run takes from the seed: which source
// has which size, which labels are true, and each client's decisions.
type fleetPlan struct {
	sources []object.Descriptor
	world   staticWorld
	queries [][]decision // per client
}

func labelName(i int) string { return fmt.Sprintf("seg%02d", i) }

// plan draws the i-th fleet plan of a run. The sizes are a fixed ladder
// and exactly falseLabels labels are false, each on a source of its own,
// so what varies is which label is cheap and which is true, not how many
// are. That arrangement alone moves bytes per decision by a tenth, so a
// run deals it once, in seeded order, and plan i shifts the ladder round
// by i steps: over fleetSources consecutive plans every label has had
// every size. What each client asks is dealt afresh per plan. Decisions
// are (a & b) | c over three distinct labels.
func (w tcpWorkload) plan(p params, i int) *fleetPlan {
	perClient := warmupDecisions + w.decisions
	deal := rand.New(rand.NewSource(p.seed*inputSeedStride + inputSeedStride/2))
	plan := &fleetPlan{world: make(staticWorld)}
	for l := 0; l < fleetLabels; l++ {
		plan.world[labelName(l)] = true
	}
	for src, slot := range deal.Perm(fleetSources) {
		id := fmt.Sprintf("src%d", src)
		var labels []string
		for l := 0; l < labelsPerSource; l++ {
			labels = append(labels, labelName(src*labelsPerSource+l))
		}
		step := int64((slot + i) % fleetSources)
		plan.sources = append(plan.sources, object.Descriptor{
			Name:     names.MustParse("/bench/" + id + "/cam"),
			Size:     w.minSize + step*(w.maxSize-w.minSize)/(fleetSources-1),
			Validity: fleetValidity,
			Labels:   labels,
			Source:   id,
			ProbTrue: 0.8,
		})
	}
	for _, src := range deal.Perm(fleetSources)[:falseLabels] {
		plan.world[labelName(src*labelsPerSource+deal.Intn(labelsPerSource))] = false
	}
	seed := p.seed*inputSeedStride + int64(i)
	for c := 0; c < hostThreads; c++ {
		crng := rand.New(rand.NewSource(seed*31 + int64(c) + 1))
		qs := make([]decision, perClient)
		for i := range qs {
			pick := crng.Perm(fleetLabels)[:3]
			a, b, c := labelName(pick[0]), labelName(pick[1]), labelName(pick[2])
			expr := boolexpr.ToDNF(boolexpr.MustParse(fmt.Sprintf("(%s & %s) | %s", a, b, c)))
			want := core.ResolvedFalse
			if (plan.world[a] && plan.world[b]) || plan.world[c] {
				want = core.ResolvedTrue
			}
			qs[i] = decision{expr: expr, want: want}
		}
		plan.queries = append(plan.queries, qs)
	}
	return plan
}

// meta is the planning metadata cmd/athenad derives from the advertised
// descriptors: a label costs its object's size.
func (plan *fleetPlan) meta() boolexpr.MetaTable {
	meta := make(boolexpr.MetaTable)
	for _, d := range plan.sources {
		for _, l := range d.Labels {
			meta[l] = boolexpr.Meta{Cost: float64(d.Size), ProbTrue: d.ProbTrue, Validity: d.Validity}
		}
	}
	return meta
}

// fleet is a running loopback deployment.
type fleet struct {
	nodes      map[string]*iathena.Node
	transports []*transport.TCPTransport
	consumers  []string
	reg        *metrics.Registry
	tr         *tracer // nil unless traced
	// Socket totals across all transports.
	sends, sentBytes, redials, sendErrors *metrics.Counter
}

func consumerID(i int) string { return fmt.Sprintf("con%d", i) }

// buildFleet starts every node and connects the star. With a tracer, each
// interface a node is given is decorated and the nodes mirror their
// activity into a registry for the counter metrics; without one the
// program runs with nothing of the benchmark's in its way but the four
// socket counters.
func buildFleet(plan *fleetPlan, tr *tracer) (*fleet, error) {
	f := &fleet{nodes: make(map[string]*iathena.Node), reg: metrics.NewRegistry(), tr: tr}
	f.sends = f.reg.Counter("transport.sends")
	f.sentBytes = f.reg.Counter("transport.sent_bytes")
	f.redials = f.reg.Counter("transport.redials")
	f.sendErrors = f.reg.Counter("transport.send_errors")
	var nodeReg *metrics.Registry
	if tr != nil {
		nodeReg = f.reg
	}

	ids := []string{"gw"}
	byID := make(map[string]*object.Descriptor)
	for i := range plan.sources {
		ids = append(ids, plan.sources[i].Source)
		byID[plan.sources[i].Source] = &plan.sources[i]
	}
	for c := 0; c < hostThreads; c++ {
		ids = append(ids, consumerID(c))
		f.consumers = append(f.consumers, consumerID(c))
	}
	meta := plan.meta()
	auth := trust.NewAuthority()

	addrs := make(map[string]string)
	byNode := make(map[string]*transport.TCPTransport)
	for _, id := range ids {
		var codec transport.Codec = wire.Codec{}
		if tr != nil {
			codec = &tracedCodec{inner: codec, t: tr.node(id)}
		}
		tcp, err := transport.NewTCP(id, "127.0.0.1:0", codec)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		tcp.Instrument(transport.TCPMetrics{Sends: f.sends, SentBytes: f.sentBytes, Redials: f.redials, SendErrors: f.sendErrors})
		f.transports = append(f.transports, tcp)
		byNode[id] = tcp
		addrs[id] = tcp.Addr()
	}
	for _, id := range ids {
		router := &iathena.StaticRouter{Self: id, NextHops: map[string]string{}}
		if id == "gw" {
			for _, peer := range ids[1:] {
				byNode[id].AddPeer(peer, addrs[peer])
			}
		} else {
			byNode[id].AddPeer("gw", addrs["gw"])
			for _, other := range ids[1:] {
				if other != id {
					router.NextHops[other] = "gw"
				}
			}
		}
		cacheBytes := int64(leafCacheBytes)
		if byID[id] != nil {
			cacheBytes = 64 << 20
		}
		cfg := iathena.Config{
			ID:              id,
			Transport:       byNode[id],
			Router:          router,
			Timers:          iathena.WallTimers{},
			Scheme:          fleetScheme,
			Directory:       iathena.NewDirectory(plan.sources),
			Meta:            meta,
			World:           plan.world,
			Authority:       auth,
			Signer:          auth.Register(id, []byte("bench-"+id)),
			Policy:          trust.TrustAll(),
			Descriptor:      byID[id],
			CacheBytes:      cacheBytes,
			DisablePrefetch: true,
			// The retry allowance per byte is sized for the paper's 1 Mbps
			// links by default, and the same figure arms the window in
			// which a source treats a second request for an object as a
			// duplicate of one still in flight. On loopback nothing is in
			// flight that long: two consumers asking for one object a
			// fraction of a millisecond apart are both honest, and a
			// suppressed one would wait out its 6 s retry past the 5 s
			// deadline. So the allowance is switched off, in effect.
			RetryBandwidth: 1e12,
			Metrics:        nodeReg,
		}
		if tr != nil {
			t := tr.node(id)
			cfg.Transport = traceTransport(cfg.Transport, t)
			cfg.Router = &tracedRouter{inner: cfg.Router, t: t}
			cfg.Timers = &tracedTimers{inner: cfg.Timers, t: t}
			cfg.World = &tracedWorld{inner: annotate.GroundTruth(plan.world), t: t}
		}
		node, err := iathena.New(cfg)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("node %s: %w", id, err), f.close())
		}
		f.nodes[id] = node
	}
	return f, nil
}

// close stops every transport and waits for its reader goroutines.
func (f *fleet) close() error {
	var errs []error
	for _, t := range f.transports {
		if err := t.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// awaitAnswer returns the node's answer to decision qid, or false once
// giveUp fires. An answer to any other decision is the late answer to one
// already given up on, and is dropped.
func awaitAnswer(done <-chan iathena.QueryResult, qid string, giveUp <-chan time.Time) (iathena.QueryResult, bool) {
	for {
		select {
		case res := <-done:
			if res.QueryID == qid {
				return res, true
			}
		case <-giveUp:
			return iathena.QueryResult{}, false
		}
	}
}

// driven is what a batch of decisions yielded.
type driven struct {
	latencies []float64 // ms, client-observed, resolved decisions only
	failed    int       // expired, errored or never answered
	wrong     []string
}

// drive runs the closed loop: every client issues decisions [from, from+n)
// of its list, each after the previous one is decided, and checks every
// answer against the ground truth.
func (f *fleet) drive(plan *fleetPlan, from, n int) driven {
	results := make([]driven, len(f.consumers))
	var wg sync.WaitGroup
	for c, id := range f.consumers {
		wg.Add(1)
		go func(c int, id string) {
			defer wg.Done()
			node := f.nodes[id]
			// One send per decision issued, so the node's callback
			// never blocks, even on an answer nobody waits for any more.
			done := make(chan iathena.QueryResult, n)
			node.OnQueryDone(func(r iathena.QueryResult) { done <- r })
			// A node always answers by the deadline, if only with Expired;
			// the timer is there so a bug cannot hang the benchmark.
			giveUp := newWallTimer(2 * decisionBudget)
			defer giveUp.Stop()
			r := &results[c]
			for i := from; i < from+n; i++ {
				q := plan.queries[c][i]
				start := wallNow()
				var qid string
				var err error
				if f.tr != nil {
					qid, err = tracedQueryInit(f.tr.node(id), node, q.expr, decisionBudget)
				} else {
					qid, err = node.QueryInit(q.expr, decisionBudget)
				}
				if err != nil {
					r.failed++
					r.wrong = append(r.wrong, fmt.Sprintf("%s decision %d (%s): %v", id, i, q.expr, err))
					continue
				}
				if !giveUp.Stop() {
					select {
					case <-giveUp.C:
					default:
					}
				}
				giveUp.Reset(2 * decisionBudget)
				res, ok := awaitAnswer(done, qid, giveUp.C)
				switch {
				case !ok:
					r.failed++
					r.wrong = append(r.wrong, fmt.Sprintf("%s decision %d (%s): no answer after %v", id, i, q.expr, 2*decisionBudget))
				case res.Status == core.Expired:
					r.failed++
				case res.Status != q.want:
					r.wrong = append(r.wrong, fmt.Sprintf("%s decision %d (%s): got %v, ground truth says %v", id, i, q.expr, res.Status, q.want))
				default:
					r.latencies = append(r.latencies, float64(wallNow().Sub(start))/float64(time.Millisecond))
				}
			}
		}(c, id)
	}
	wg.Wait()
	var all driven
	for _, r := range results {
		all.latencies = append(all.latencies, r.latencies...)
		all.failed += r.failed
		all.wrong = append(all.wrong, r.wrong...)
	}
	return all
}

// tcpRun is what one execution of a fleet plan measured.
type tcpRun struct {
	driven
	setup     time.Duration
	wall, cpu time.Duration
	mallocs   uint64
	allocated uint64
	frames    int64
	bytes     int64
	fleet     *fleet // closed; kept for its counters and spans
}

// execute builds a fleet for the plan, warms it up and times n decisions
// per client.
func (w tcpWorkload) execute(plan *fleetPlan, n int, tr *tracer) (r tcpRun, err error) {
	t0 := wallNow()
	f, err := buildFleet(plan, tr)
	if err != nil {
		return r, err
	}
	defer func() { err = errors.Join(err, f.close()) }()
	warm := f.drive(plan, 0, warmupDecisions)
	r.setup = wallNow().Sub(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	frames0, bytes0 := f.sends.Value(), f.sentBytes.Value()
	u0 := readUsage()
	t1 := wallNow()
	r.driven = f.drive(plan, warmupDecisions, n)
	r.wall = wallNow().Sub(t1)
	r.cpu = readUsage().cpu - u0.cpu
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocated = m1.TotalAlloc - m0.TotalAlloc
	r.frames = f.sends.Value() - frames0
	r.bytes = f.sentBytes.Value() - bytes0
	r.failed += warm.failed
	r.wrong = append(r.wrong, warm.wrong...)
	r.fleet = f
	return r, nil
}

func (w tcpWorkload) measure(p params, log io.Writer) (outcome, error) {
	w = w.sized(p)
	k := p.units(w.plans)
	var o outcome
	meter, err := newSpeedMeter(p)
	if err != nil {
		return o, err
	}
	kept := make([]tcpRun, k)
	for pass := 0; pass < executions; pass++ {
		for i := range kept {
			if err := meter.tick(); err != nil {
				return o, err
			}
			runtime.GC() // the previous fleet is garbage; collect it outside the timed region
			r, err := w.execute(w.plan(p, i), w.decisions, nil)
			if err != nil {
				return o, err
			}
			o.attempted += hostThreads * (warmupDecisions + w.decisions)
			o.failed += r.failed
			o.wrong = append(o.wrong, r.wrong...)
			r.fleet = nil
			switch {
			case pass == 0:
				kept[i] = r
			case r.wall < kept[i].wall:
				r.setup = min(r.setup, kept[i].setup)
				kept[i] = r
			default:
				kept[i].setup = min(r.setup, kept[i].setup)
			}
		}
	}

	var total tcpRun
	var setups []float64
	for _, r := range kept {
		setups = append(setups, r.setup.Seconds())
		total.latencies = append(total.latencies, r.latencies...)
		total.wall += r.wall
		total.cpu += r.cpu
		total.mallocs += r.mallocs
		total.allocated += r.allocated
		total.frames += r.frames
		total.bytes += r.bytes
	}
	if len(total.latencies) == 0 {
		return o, fmt.Errorf("%s: no decision resolved over %d plans", w.name, k)
	}
	issued, scale := float64(k*hostThreads*w.decisions), meter.atReferenceSpeed()
	meter.report(log, w.name)
	fmt.Fprintf(log, "%s: as measured: wall %.1f us, cpu %.1f us per decision, p50 %.4f ms, p99 %.3f ms over %d decisions\n", w.name,
		micros(total.wall)/issued, micros(total.cpu)/issued, percentile(total.latencies, 0.50), percentile(total.latencies, 0.99), len(total.latencies))
	o.vals = map[string]float64{
		"setup_s":                 median(setups) * scale,
		"decision_wall_us":        micros(total.wall) / issued * scale,
		"decision_cpu_us":         micros(total.cpu) / issued * scale,
		"decision_allocs":         float64(total.mallocs) / issued,
		"decision_alloc_kb":       float64(total.allocated) / 1e3 / issued,
		"decision_wire_kb":        float64(total.bytes) / 1e3 / issued,
		"decision_frames":         float64(total.frames) / issued,
		"resolved_share":          float64(len(total.latencies)) / issued,
		"decision_latency_p50_ms": percentile(total.latencies, 0.50) * scale,
		"peak_rss_mb":             float64(readUsage().maxRSSkB) / 1e3,
	}
	fmt.Fprintf(log, "%s: %d plans x %d executions of %d clients x %d decisions (closed loop)\n", w.name, k, executions, hostThreads, w.decisions)
	return o, nil
}

func (w tcpWorkload) traced(p params, log io.Writer) (outcome, error) {
	w = w.sized(p)
	w.decisions = w.tracedDecisions
	var o outcome
	plan := w.plan(p, 0)

	// The same decisions twice on fresh fleets: bare, for the CPU the
	// tracing is compared against and the tail latency; then decorated.
	ref, err := w.execute(plan, w.decisions, nil)
	if err != nil {
		return o, err
	}
	runtime.GC()
	tr := newTracer()
	got, err := w.execute(plan, w.decisions, tr)
	if err != nil {
		return o, err
	}
	o.attempted = 2 * hostThreads * (warmupDecisions + w.decisions)
	o.failed = ref.failed + got.failed
	o.wrong = append(ref.wrong, got.wrong...)
	if len(ref.latencies) == 0 {
		return o, fmt.Errorf("%s: the bare execution resolved nothing", w.name)
	}
	// Fidelity: the decorated fleet must behave like the bare one.
	if got.failed > 0 {
		o.wrong = append(o.wrong, fmt.Sprintf("%d decisions failed on the traced fleet", got.failed))
	}
	if drift := math.Abs(ratio(float64(got.frames), float64(ref.frames)) - 1); drift > boundOf("decision_frames") {
		o.wrong = append(o.wrong, fmt.Sprintf("the traced fleet sent %d frames where the bare one sent %d", got.frames, ref.frames))
	}

	var stats iathena.Stats
	for _, n := range got.fleet.nodes {
		addStats(&stats, n.Stats())
	}
	// Spans and counters cover the warm-up too, so they are divided by
	// every decision the traced fleet issued.
	per := float64(stats.QueriesIssued)
	vals, spans, err := layerMetrics(w.name, p, tr, stats, got.fleet.reg.Snapshot(), per, log)
	if err != nil {
		return o, err
	}
	vals["transport.send_self_us"] = micros(time.Duration(spans.self[spanSend])) / per
	vals["transport.send_calls"] = float64(spans.calls[spanSend]) / per
	vals["transport.send_p99_us"] = percentile(spans.sendNs, 0.99) / 1e3
	vals["transport.redials"] = float64(got.fleet.redials.Value()) / per
	vals["transport.send_errors"] = float64(got.fleet.sendErrors.Value()) / per
	vals["transport.decision_p99_ms"] = percentile(ref.latencies, 0.99)
	vals["wire.encode_us"] = micros(time.Duration(spans.total[spanEncode])) / per
	vals["wire.decode_us"] = micros(time.Duration(spans.total[spanDecode])) / per
	vals["wire.encode_kb"] = float64(spans.bytes[spanEncode]) / 1e3 / per
	vals["bench.trace_overhead"] = ratio(float64(got.cpu), float64(ref.cpu)) - 1
	o.vals = vals
	return o, nil
}
