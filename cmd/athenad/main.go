// Command athenad runs one Athena node over real TCP — the deployment
// shape the paper used (one process per node, addressed by IP:PORT).
//
// Serve a sensor node:
//
//	athenad -id src -listen 127.0.0.1:7001 \
//	    -source /cam/alpha=200000,60s,viableA+viableB \
//	    -truth viableA=true -truth viableB=true
//
// Issue a decision query from a second node and exit with the answer:
//
//	athenad -id origin -listen 127.0.0.1:7002 -peer src=127.0.0.1:7001 \
//	    -query 'viableA & viableB' -deadline 30s
//
// With live membership (-join), no static -peer/-source wiring is needed
// on the consumer side: the node introduces itself to one known peer,
// learns the mesh and every advertised stream from the join handshake,
// floods heartbeats, evicts dead sources, and withdraws its own
// advertisement (a graceful leave) on exit:
//
//	athenad -id src -listen 127.0.0.1:7001 -heartbeat 2s \
//	    -source /cam/alpha=200000,60s,viableA+viableB
//	athenad -id origin -listen 127.0.0.1:7002 -join src=127.0.0.1:7001 \
//	    -truth viableA=true -truth viableB=true \
//	    -query 'viableA & viableB' -deadline 30s
//
// Or run a self-contained two-process-equivalent demo on loopback:
//
//	athenad -demo
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"athena"
	iathena "athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
)

type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

// staticWorld is a fixed ground truth fed by -truth flags.
type staticWorld map[string]bool

func (w staticWorld) LabelValue(label string, _ time.Time) bool { return w[label] }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "athenad:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id        = flag.String("id", "athena-node", "node identifier")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		schemeStr = flag.String("scheme", "lvfl", "retrieval scheme (cmp, slt, lcf, lvf, lvfl)")
		query     = flag.String("query", "", "decision expression to resolve (then exit)")
		deadline  = flag.Duration("deadline", 30*time.Second, "decision deadline for -query")
		demo      = flag.Bool("demo", false, "run a self-contained two-node TCP demo and exit")
		heartbeat = flag.Duration("heartbeat", 0, "membership heartbeat interval (0 = static directory; implied 2s when -join is used)")
		gfanout   = flag.Int("gossip-fanout", 0, "SWIM gossip probe fanout per interval (0 = flooded heartbeats)")
		status    = flag.String("status", "", "serve the observability endpoint on this address (e.g. :8080): /statusz JSON, /debug/vars, /debug/pprof")
		shards    = flag.Int("shards", 0, "partition the directory into this many name-prefix shards (0 = full replica; requires -gossip-fanout)")
		batchWin  = flag.Duration("batch-window", 0, "data-plane coalescing window: same-neighbor requests/data merge into batch frames for up to this long (0 = batching off)")
		peers     repeatable
		routes    repeatable
		sources   repeatable
		truths    repeatable
		joins     repeatable
	)
	flag.Var(&peers, "peer", "peer as id=host:port (repeatable; static wiring, no handshake)")
	flag.Var(&routes, "route", "static route as dest=nexthop (repeatable)")
	flag.Var(&sources, "source", "sensor stream as name=sizeBytes,validity,label1+label2 (repeatable; first wins)")
	flag.Var(&truths, "truth", "ground truth as label=true|false (repeatable)")
	flag.Var(&joins, "join", "peer as id=host:port to join via the membership handshake (repeatable; enables -heartbeat)")
	flag.Parse()

	if *demo {
		return runDemo()
	}

	scheme, err := athena.ParseScheme(*schemeStr)
	if err != nil {
		return err
	}
	world := staticWorld{}
	for _, t := range truths {
		k, v, ok := strings.Cut(t, "=")
		if !ok {
			return fmt.Errorf("bad -truth %q", t)
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("bad -truth %q: %w", t, err)
		}
		world[k] = b
	}

	tr, err := transport.NewTCP(*id, *listen, wire.Codec{})
	if err != nil {
		return err
	}
	defer tr.Close()
	fmt.Printf("athenad: node %s listening on %s\n", *id, tr.Addr())

	for _, p := range peers {
		pid, addr, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("bad -peer %q", p)
		}
		tr.AddPeer(pid, addr)
	}

	router := &iathena.StaticRouter{Self: *id, NextHops: map[string]string{}}
	for _, r := range routes {
		dst, hop, ok := strings.Cut(r, "=")
		if !ok {
			return fmt.Errorf("bad -route %q", r)
		}
		router.NextHops[dst] = hop
	}

	var desc *object.Descriptor
	var descList []object.Descriptor
	for _, s := range sources {
		d, err := parseSource(*id, s)
		if err != nil {
			return err
		}
		if desc == nil {
			desc = &d
		}
		descList = append(descList, d)
	}
	// With -join, remote advertisements arrive through the membership
	// handshake and gossip; static -source ...@srcnode flags remain the
	// out-of-band fallback for static deployments.
	dir := iathena.NewDirectory(descList)
	if len(joins) > 0 && *heartbeat <= 0 {
		*heartbeat = 2 * time.Second
	}

	var reg *metrics.Registry
	if *status != "" {
		reg = metrics.NewRegistry()
		tr.Instrument(transport.TCPMetrics{
			Sends:      reg.Counter("transport.sends"),
			SentBytes:  reg.Counter("transport.sent_bytes"),
			Redials:    reg.Counter("transport.redials"),
			SendErrors: reg.Counter("transport.send_errors"),
		})
	}

	meta := iathena.PriceLabels(nil, descList)
	auth := trust.NewAuthority()
	node, err := iathena.New(iathena.Config{
		ID:        *id,
		Transport: tr,
		Router:    router,
		Timers:    iathena.WallTimers{},
		Scheme:    scheme,
		Directory: dir,
		Meta:      meta,
		World:     world,
		Authority: auth,
		Signer:    auth.Register(*id, []byte("athenad-"+*id)),
		Policy:    trust.TrustAll(),
		Descriptor: func() *object.Descriptor {
			if desc != nil && desc.Source == *id {
				return desc
			}
			return nil
		}(),
		CacheBytes: 64 << 20,
		// Prefetch stays off, as NewCluster has it: ablation A2 finds
		// the pushes cost more bandwidth and resolution than they save.
		DisablePrefetch:   true,
		HeartbeatInterval: *heartbeat,
		GossipFanout:      *gfanout,
		Shards:            *shards,
		CoalesceWindow:    *batchWin,
		Metrics:           reg,
	})
	if err != nil {
		return err
	}

	if *status != "" {
		ln, err := net.Listen("tcp", *status)
		if err != nil {
			return fmt.Errorf("status listen %s: %w", *status, err)
		}
		defer ln.Close()
		fmt.Printf("athenad: status endpoint on http://%s/statusz\n", ln.Addr())
		// Closing srv (deferred) severs open status connections as well as
		// the listener, so shutdown doesn't strand pollers mid-response.
		srv := &http.Server{Handler: node.StatusMux()}
		defer srv.Close()
		go func() {
			_ = srv.Serve(ln)
		}()
	}

	// Membership join handshake: introduce this node to each named peer;
	// the acks carry the rest of the mesh and every advertised stream.
	for _, j := range joins {
		pid, addr, ok := strings.Cut(j, "=")
		if !ok {
			return fmt.Errorf("bad -join %q", j)
		}
		tr.AddPeer(pid, addr)
		if err := node.Join(pid); err != nil {
			return fmt.Errorf("join %s: %w", pid, err)
		}
		fmt.Printf("athenad: joined via %s (%s)\n", pid, addr)
	}
	if *heartbeat > 0 {
		// Withdraw our advertisement on the way out so peers tombstone us
		// immediately instead of waiting out the miss budget.
		defer func() { _ = node.Leave() }()
	}

	if *query != "" {
		expr, err := athena.ParseExpr(*query)
		if err != nil {
			return err
		}
		dnf := athena.ToDNF(expr)
		if *heartbeat > 0 {
			// Joined advertisements propagate asynchronously: give the
			// directory a moment to cover the query's labels, then fold the
			// advertised streams into the planning metadata.
			waitUntil := time.Now().Add(5 * time.Second)
			for !labelsCovered(dir, dnf.Labels()) && time.Now().Before(waitUntil) {
				time.Sleep(50 * time.Millisecond)
			}
			mergeDirectoryMeta(meta, dir)
		}
		done := make(chan iathena.QueryResult, 1)
		node.OnQueryDone(func(r iathena.QueryResult) { done <- r })
		qid, err := node.QueryInit(dnf, *deadline)
		if err != nil {
			return err
		}
		fmt.Printf("athenad: issued %s: %s (deadline %v)\n", qid, expr, *deadline)
		select {
		case r := <-done:
			fmt.Printf("athenad: %s -> %s after %v\n", qid, r.Status, r.Finished.Sub(r.Issued).Round(time.Millisecond))
			if r.Status == athena.Expired {
				return errors.New("decision deadline expired")
			}
			return nil
		case <-time.After(*deadline + 10*time.Second):
			return errors.New("timed out waiting for decision")
		}
	}

	// Serve until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("athenad: shutting down")
	return nil
}

// parseSource parses name=sizeBytes,validity,label1+label2[@sourceNode].
func parseSource(self, spec string) (object.Descriptor, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return object.Descriptor{}, fmt.Errorf("bad -source %q", spec)
	}
	srcNode := self
	if at := strings.LastIndex(rest, "@"); at >= 0 {
		srcNode = rest[at+1:]
		rest = rest[:at]
	}
	parts := strings.Split(rest, ",")
	if len(parts) != 3 {
		return object.Descriptor{}, fmt.Errorf("bad -source %q: want name=size,validity,labels", spec)
	}
	size, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return object.Descriptor{}, fmt.Errorf("bad size in %q: %w", spec, err)
	}
	validity, err := time.ParseDuration(parts[1])
	if err != nil {
		return object.Descriptor{}, fmt.Errorf("bad validity in %q: %w", spec, err)
	}
	parsed, err := names.Parse(name)
	if err != nil {
		return object.Descriptor{}, err
	}
	return object.Descriptor{
		Name:     parsed,
		Size:     size,
		Validity: validity,
		Labels:   strings.Split(parts[2], "+"),
		Source:   srcNode,
		ProbTrue: 0.5,
	}, nil
}

// labelsCovered reports whether every label has at least one advertised
// covering source.
func labelsCovered(dir *iathena.Directory, labels []string) bool {
	for _, l := range labels {
		if dir.SourceForLabel(l, nil) == "" {
			return false
		}
	}
	return true
}

// mergeDirectoryMeta folds advertised streams learned at runtime (via the
// membership handshake) into the planning metadata table.
func mergeDirectoryMeta(meta boolexpr.MetaTable, dir *iathena.Directory) {
	var descs []object.Descriptor
	for _, a := range dir.Snapshot() {
		if a.Withdrawn {
			continue
		}
		if d, err := a.Descriptor(); err == nil {
			descs = append(descs, d)
		}
	}
	iathena.PriceLabels(meta, descs)
}

// runDemo spins up a sensor node and a query node over loopback TCP and
// resolves one decision end-to-end.
func runDemo() error {
	world := staticWorld{"viableA": true, "viableB": true, "viableC": false}
	desc := object.Descriptor{
		Name:     names.MustParse("/demo/cam"),
		Size:     250_000,
		Validity: time.Minute,
		Labels:   []string{"viableA", "viableB", "viableC"},
		Source:   "src",
		ProbTrue: 0.6,
	}
	dir := iathena.NewDirectory([]object.Descriptor{desc})
	auth := trust.NewAuthority()

	mk := func(id string, d *object.Descriptor) (*iathena.Node, *transport.TCPTransport, error) {
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			return nil, nil, err
		}
		node, err := iathena.New(iathena.Config{
			ID: id, Transport: tr, Router: &iathena.StaticRouter{Self: id},
			Timers: iathena.WallTimers{}, Scheme: athena.SchemeLVFL,
			Directory: dir, Meta: iathena.PriceLabels(nil, []object.Descriptor{desc}),
			World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 16 << 20, DisablePrefetch: true,
		})
		if err != nil {
			if cerr := tr.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return nil, nil, err
		}
		return node, tr, nil
	}

	_, srcTr, err := mk("src", &desc)
	if err != nil {
		return err
	}
	defer srcTr.Close()
	origin, originTr, err := mk("origin", nil)
	if err != nil {
		return err
	}
	defer originTr.Close()
	srcTr.AddPeer("origin", originTr.Addr())
	originTr.AddPeer("src", srcTr.Addr())

	done := make(chan iathena.QueryResult, 1)
	origin.OnQueryDone(func(r iathena.QueryResult) { done <- r })
	expr := athena.ToDNF(athena.MustParseExpr("(viableA & viableB) | viableC"))
	qid, err := origin.QueryInit(expr, 15*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("athenad demo: %s = %s over real TCP (%s <-> %s)\n", qid, expr, originTr.Addr(), srcTr.Addr())
	select {
	case r := <-done:
		fmt.Printf("athenad demo: decision %s in %v\n", r.Status, r.Finished.Sub(r.Issued).Round(time.Millisecond))
		if r.Status != athena.ResolvedTrue {
			return fmt.Errorf("unexpected status %v", r.Status)
		}
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("demo timed out")
	}
}
