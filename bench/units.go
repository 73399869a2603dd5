package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"athena"
	iathena "athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/cache"
	"athena/internal/core"
	"athena/internal/gossip"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/schedule"
	"athena/internal/shard"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
)

// Unit drivers time one layer's public functions directly, on inputs
// taken from the workload's own generated scenario or fleet plan. They
// say what an operation costs in isolation; the traced run says how often
// a decision performs it.

// unitInputs is what the drivers draw their inputs from.
type unitInputs struct {
	exprs   []boolexpr.DNF
	texts   []string // exprs rendered, for the parser
	meta    boolexpr.MetaTable
	sources []object.Descriptor
	labels  []string // every label some source evidences, sorted
	epoch   time.Time
	gen     func() error // generates the scenario again (simulator only)
}

func newUnitInputs(exprs []boolexpr.DNF, meta boolexpr.MetaTable, sources []object.Descriptor, epoch time.Time) unitInputs {
	in := unitInputs{exprs: exprs, meta: meta, sources: sources, epoch: epoch}
	seen := make(map[string]bool)
	for _, e := range exprs {
		in.texts = append(in.texts, e.String())
	}
	for _, d := range sources {
		for _, l := range d.Labels {
			if !seen[l] {
				seen[l] = true
				in.labels = append(in.labels, l)
			}
		}
	}
	sort.Strings(in.labels)
	return in
}

// unitDriver times one group of layers into vals.
type unitDriver func(vals map[string]float64, in unitInputs, smoke bool) error

// unitGroups says which groups of drivers run on which workload: the
// layers that workload's decisions spend their time in.
var unitGroups = map[string][]unitDriver{
	"sec7_lvfl":    {logicDrivers, trustDrivers, engineDrivers},
	"sec7_cmp":     {storeDrivers, engineDrivers},
	"kernel_fleet": {storeDrivers, engineDrivers},
	"tcp_fetch":    {wireDrivers},
	"tcp_small":    {logicDrivers, trustDrivers, wireDrivers},
}

// measureOp returns the cost of one call of op in nanoseconds: the median
// over five batches, each long enough to time.
func measureOp(smoke bool, op func(i int)) float64 {
	batch, target := 1, 10*time.Millisecond
	if smoke {
		target = 200 * time.Microsecond
	}
	for {
		t0 := wallNow()
		for i := 0; i < batch; i++ {
			op(i)
		}
		if wallNow().Sub(t0) >= target || batch >= 1<<24 {
			break
		}
		batch *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		t0 := wallNow()
		for i := 0; i < batch; i++ {
			op(i)
		}
		per = append(per, float64(wallNow().Sub(t0))/float64(batch))
	}
	return median(per)
}

// allocsPerOp counts heap allocations per call of op.
func allocsPerOp(op func(i int)) float64 {
	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

// sink keeps results alive so the compiler cannot drop the measured call.
var sink any

func runUnitDrivers(workload string, p params) (map[string]float64, error) {
	in, err := unitInputsFor(workload, p)
	if err != nil {
		return nil, err
	}
	if len(in.exprs) == 0 || len(in.sources) == 0 {
		return nil, fmt.Errorf("%s: nothing to drive the unit drivers with", workload)
	}
	vals := make(map[string]float64)
	for _, drive := range unitGroups[workload] {
		if err := drive(vals, in, p.smoke); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

func unitInputsFor(workload string, p params) (unitInputs, error) {
	for _, w := range simWorkloads {
		if w.name != workload {
			continue
		}
		cfg := w.scenarioConfig(p, 0)
		s, err := athena.GenerateScenario(cfg)
		if err != nil {
			return unitInputs{}, err
		}
		var exprs []boolexpr.DNF
		for _, q := range s.Queries {
			exprs = append(exprs, q.Expr)
		}
		in := newUnitInputs(exprs, s.Meta, s.Sources, s.Epoch)
		in.gen = func() error { _, err := athena.GenerateScenario(cfg); return err }
		return in, nil
	}
	for _, w := range tcpWorkloads {
		if w.name != workload {
			continue
		}
		plan := w.sized(p).plan(p, 0)
		var exprs []boolexpr.DNF
		for _, q := range plan.queries[0] {
			exprs = append(exprs, q.expr)
		}
		return newUnitInputs(exprs, plan.meta(), plan.sources, time.Unix(1_700_000_000, 0)), nil
	}
	return unitInputs{}, fmt.Errorf("unknown workload %q", workload)
}

// logicDrivers: parsing, normal form, planning and the decision engine.
func logicDrivers(vals map[string]float64, in unitInputs, smoke bool) error {
	n := len(in.exprs)
	parsed := make([]boolexpr.Expr, n)
	for i, t := range in.texts {
		parsed[i] = boolexpr.MustParse(t)
	}
	vals["boolexpr.parse_ns"] = measureOp(smoke, func(i int) {
		e, err := boolexpr.Parse(in.texts[i%n])
		if err != nil {
			panic(err) // the text was rendered from a valid expression
		}
		sink = e
	})
	vals["boolexpr.todnf_ns"] = measureOp(smoke, func(i int) { sink = boolexpr.ToDNF(parsed[i%n]) })
	vals["boolexpr.plan_ns"] = measureOp(smoke, func(i int) { sink = boolexpr.GreedyPlan(in.exprs[i%n], in.meta) })
	vals["boolexpr.labels_ns"] = measureOp(smoke, func(i int) { sink = in.exprs[i%n].Labels() })

	deadline := in.epoch.Add(time.Minute)
	vals["core.engine_new_ns"] = measureOp(smoke, func(i int) {
		sink = core.NewEngine("q", in.exprs[i%n], deadline, in.meta)
	})
	engines := make([]*core.Engine, n)
	labels := make([][]string, n)
	for i, e := range in.exprs {
		engines[i] = core.NewEngine("q", e, deadline, in.meta)
		labels[i] = e.Labels()
	}
	vals["core.set_step_ns"] = measureOp(smoke, func(i int) {
		e, ls := engines[i%n], labels[i%n]
		// Alternating values keep the engine from settling.
		_ = e.Set(ls[i%len(ls)], i%2 == 0, deadline, "src", "bench")
		sink = e.Step(in.epoch)
	})

	items := make([][]schedule.Item, n)
	for i, ls := range labels {
		for _, l := range ls {
			m := in.meta.Get(l)
			items[i] = append(items[i], schedule.Item{ID: l, Cost: m.Cost, Validity: m.Validity, ProbFalse: 1 - m.ProbTrue})
		}
	}
	vals["schedule.lvf_order_ns"] = measureOp(smoke, func(i int) { sink = schedule.LVFOrder(items[i%n]) })
	return nil
}

// storeDrivers: content store, label cache, names and the directory.
func storeDrivers(vals map[string]float64, in unitInputs, smoke bool) error {
	n := len(in.sources)
	objs := make([]*object.Object, n)
	texts := make([]string, n)
	trie := &names.Trie[int]{}
	for i, d := range in.sources {
		objs[i] = &object.Object{
			ID: object.ID{Name: d.Name, Version: 1}, Size: d.Size, Created: in.epoch,
			Validity: d.Validity, Labels: d.Labels, Source: d.Source,
		}
		texts[i] = d.Name.String()
		trie.Put(d.Name, i)
	}
	store := cache.NewStore(clusterCacheBytes)
	vals["cache.put_get_ns"] = measureOp(smoke, func(i int) {
		o := objs[i%n]
		store.Put(o, in.epoch)
		sink, _ = store.Get(o.ID.Name, in.epoch)
	})
	lc := cache.NewLabelCache()
	recs := make([]*trust.Label, len(in.labels))
	for i, l := range in.labels {
		recs[i] = &trust.Label{Name: l, Value: true, Annotator: "bench", Computed: in.epoch, Validity: time.Minute}
	}
	policy := trust.TrustAll()
	vals["cache.label_put_get_ns"] = measureOp(smoke, func(i int) {
		r := recs[i%len(recs)]
		lc.Put(r)
		sink, _ = lc.Get(r.Name, policy, in.epoch)
	})
	vals["names.parse_ns"] = measureOp(smoke, func(i int) {
		name, err := names.Parse(texts[i%n])
		if err != nil {
			panic(err) // the text was rendered from a valid name
		}
		sink = name
	})
	vals["names.trie_lookup_ns"] = measureOp(smoke, func(i int) {
		_, v, _ := trie.LongestPrefix(in.sources[i%n].Name)
		sink = v
	})
	dir := iathena.NewDirectory(in.sources)
	vals["athena.directory_lookup_ns"] = measureOp(smoke, func(i int) {
		sink = dir.SourceForLabel(in.labels[i%len(in.labels)], nil)
	})
	vals["athena.directory_digest_ns"] = measureOp(smoke, func(i int) {
		// Re-advertising one source invalidates the digest, so each call
		// recomputes it over the whole replica, as an anti-entropy round
		// after a membership change does.
		dir.Advertise(in.sources[i%n], uint64(n+i+1))
		sink = dir.Digest()
	})
	return nil
}

// trustDrivers: signing and verifying one label record.
func trustDrivers(vals map[string]float64, in unitInputs, smoke bool) error {
	auth := trust.NewAuthority()
	signer := auth.Register("bench", []byte("bench-secret"))
	recs := make([]trust.Label, len(in.labels))
	for i, l := range in.labels {
		recs[i] = trust.Label{Name: l, Value: i%2 == 0, Evidence: []string{"/bench/obj#1"}, Computed: in.epoch, Validity: time.Minute}
	}
	vals["trust.sign_ns"] = measureOp(smoke, func(i int) { signer.Sign(&recs[i%len(recs)]) })
	vals["trust.verify_ns"] = measureOp(smoke, func(i int) {
		if err := auth.Verify(&recs[i%len(recs)]); err != nil {
			panic(err) // the record was just signed by a registered annotator
		}
	})
	return nil
}

// wireDrivers: the codec on a small and a large frame, and the socket
// transport's round trip and bulk send over loopback.
func wireDrivers(vals map[string]float64, in unitInputs, smoke bool) error {
	codec := wire.Codec{}
	d := in.sources[0]
	small := &iathena.ObjectRequest{QueryID: "con0/q1", Origin: "con0", Object: d.Name.String(), SourceNode: d.Source, Labels: d.Labels}
	data := &iathena.ObjectData{
		Object: d.Name.String(), Version: 1, Size: 500_000, Created: in.epoch, Validity: d.Validity,
		Labels: d.Labels, SourceNode: d.Source, Origin: "con0", QueryID: "con0/q1",
	}
	buf := make([]byte, 0, 1<<20)
	encode := func(size int64, payload any) func(int) {
		return func(int) {
			out, err := codec.Append(buf[:0], "con0", size, payload)
			if err != nil {
				panic(err) // a registered message type always encodes
			}
			sink = out
		}
	}
	decode := func(size int64, payload any) (func(int), error) {
		frame, err := codec.Append(nil, "con0", size, payload)
		if err != nil {
			return nil, err
		}
		return func(int) {
			_, m, err := codec.Decode(frame[4:])
			if err != nil {
				panic(err) // the frame was just produced by the same codec
			}
			sink = m
		}, nil
	}
	vals["wire.encode_small_ns"] = measureOp(smoke, encode(small.WireSize(), small))
	vals["wire.encode_data_ns"] = measureOp(smoke, encode(data.WireSize(), data))
	vals["wire.encode_allocs"] = allocsPerOp(encode(small.WireSize(), small))
	for name, m := range map[string]struct {
		size    int64
		payload any
	}{"wire.decode_small_ns": {small.WireSize(), small}, "wire.decode_data_ns": {data.WireSize(), data}} {
		op, err := decode(m.size, m.payload)
		if err != nil {
			return err
		}
		vals[name] = measureOp(smoke, op)
	}
	return socketDrivers(vals, small, smoke)
}

// socketDrivers: two TCP transports over loopback. The round trip is a
// small request one way and a small request back; the bulk send is a 1 MB
// object one way, timed until the receiver has decoded it.
func socketDrivers(vals map[string]float64, small *iathena.ObjectRequest, smoke bool) error {
	a, err := transport.NewTCP("a", "127.0.0.1:0", wire.Codec{})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCP("b", "127.0.0.1:0", wire.Codec{})
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	// One message is in flight at a time, so one slot is enough.
	atA, atB := make(chan struct{}, 1), make(chan struct{}, 1)
	a.SetHandler(func(string, int64, any) { atA <- struct{}{} })
	echo := true
	b.SetHandler(func(string, int64, any) {
		if !echo {
			atB <- struct{}{}
			return
		}
		if err := b.Send("a", small.WireSize(), small); err != nil {
			panic(err) // loopback peer just wrote to us
		}
	})
	var sendErr error
	vals["transport.tcp_small_rtt_us"] = measureOp(smoke, func(int) {
		if err := a.Send("b", small.WireSize(), small); err != nil {
			sendErr = err
			return
		}
		<-atA
	}) / 1e3
	if sendErr != nil {
		return sendErr
	}
	echo = false
	big := &iathena.ObjectData{Object: small.Object, Version: 1, Size: 1_000_000, SourceNode: "a", Origin: "b"}
	vals["transport.tcp_send_1mb_us"] = measureOp(smoke, func(int) {
		if err := a.Send("b", big.WireSize(), big); err != nil {
			sendErr = err
			return
		}
		<-atB
	}) / 1e3
	return sendErr
}

// engineDrivers: both event engines, a simulated link, the gossip
// sampler, shard ownership and scenario generation.
func engineDrivers(vals map[string]float64, in unitInputs, smoke bool) error {
	sched := simclock.New(in.epoch)
	vals["simclock.sched_event_ns"] = measureOp(smoke, func(i int) {
		sched.AfterCall(time.Duration(i%100)*time.Millisecond, func(any) {}, nil)
		sched.Step()
	})

	// One lane ticking every millisecond; each RunUntil runs one event.
	k := simclock.NewKernel(in.epoch, simclock.KernelOpts{})
	k.SetLookahead(time.Millisecond)
	lane := k.AddLane()
	var tick func(any)
	tick = func(any) { lane.AfterCall(time.Millisecond, tick, nil) }
	lane.AfterCall(0, tick, nil)
	until := in.epoch
	var runErr error
	vals["simclock.kernel_event_ns"] = measureOp(smoke, func(int) {
		until = until.Add(time.Millisecond)
		if err := k.RunUntil(until, 0); err != nil {
			runErr = err
		}
	})
	// Two lanes posting to each other every window: the cross-lane path
	// through outbox, barrier and merge.
	k2 := simclock.NewKernel(in.epoch, simclock.KernelOpts{})
	k2.SetLookahead(time.Millisecond)
	l0, l1 := k2.AddLane(), k2.AddLane()
	var ping, pong func(any)
	ping = func(any) { l0.Post(l1, l0.Now().Add(time.Millisecond), pong, nil) }
	pong = func(any) { l1.Post(l0, l1.Now().Add(time.Millisecond), ping, nil) }
	l0.AfterCall(0, ping, nil)
	until2 := in.epoch
	vals["simclock.kernel_post_ns"] = measureOp(smoke, func(int) {
		until2 = until2.Add(time.Millisecond)
		if err := k2.RunUntil(until2, 0); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}

	s3 := simclock.New(in.epoch)
	net := netsim.New(s3)
	net.AddNode("a", nil)
	net.AddNode("b", func(string, int64, any) {})
	if err := net.AddLink("a", "b", netsim.LinkConfig{Bandwidth: 1e9}); err != nil {
		return err
	}
	var sendErr error
	vals["netsim.send_deliver_ns"] = measureOp(smoke, func(int) {
		if err := net.Send("a", "b", 1000, nil); err != nil {
			sendErr = err
		}
		if err := s3.Run(0); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return sendErr
	}

	peers := make([]string, len(in.sources))
	for i, d := range in.sources {
		peers[i] = d.Source
	}
	sort.Strings(peers)
	sampler := gossip.NewSampler(1)
	sampler.SetPeers(peers)
	vals["gossip.sampler_next_ns"] = measureOp(smoke, func(int) { sink = sampler.Next(2) })
	shards := shard.NewMap(400, 2)
	vals["shard.owners_ns"] = measureOp(smoke, func(i int) { sink = shards.Replicas(i%400, peers, 3) })

	var genErr error
	vals["workload.generate_ms"] = measureOp(smoke, func(int) {
		if err := in.gen(); err != nil {
			genErr = err
		}
	}) / 1e6
	return genErr
}
