package experiment

// Ablation A11: data-plane batching. The rig is an IoT-gateway incast —
// the topology batching exists for: m consumer nodes and k sensor
// sources all hang off one gateway, every consumer queries a conjunction
// over all k sensor labels, and the per-query transfer window ("fan-in",
// SequentialWindow) controls how many requests and replies are in flight
// at once. Every frame of a consumer's query crosses its gateway link,
// so that link sees bursts of fan-in same-destination messages — the
// coalescing layer merges them into RequestBatch/DataBatch frames while
// the window=0 cell of each (n, fan-in) group ships every message
// separately, giving the unbatched baseline the other cells are
// normalized against. Reported per cell: data-plane frames and bytes per
// node, the p99 issue-to-decision latency (batching must not cost a
// query its deadline: the Nagle-style idle path ships lone messages
// immediately, so only burst followers ever wait, and at most one
// window), the mean members per batch frame, and the frame/byte
// reduction versus the baseline.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
)

// The A11 rig's fixed parameters: k sensor streams behind the gateway,
// each query a conjunction over all of them, small telemetry-sized
// objects (per-frame overhead matters most there), queries staggered
// over a short window so consumers load the gateway concurrently.
const (
	batchingSources  = 16
	batchingDeadline = 30 * time.Second
	batchingStagger  = 2 * time.Second
	batchingSlack    = 10 * time.Second
)

// batchingEpoch anchors the rig's virtual clock; any fixed instant works.
var batchingEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// BatchingRow is one (fleet size × fan-in × window) cell of the A11 table.
type BatchingRow struct {
	// Label names the configuration (e.g. "n=512 f=8 w=10ms").
	Label string
	// Nodes is the fleet size (gateway + sources + consumers); FanIn the
	// per-query concurrent-transfer cap; Window the coalescing window
	// (0 = batching off).
	Nodes  int
	FanIn  int
	Window time.Duration
	// MsgsPerNode / BytesPerNode are data-plane frames and total network
	// bytes sent, divided by the fleet size.
	MsgsPerNode  float64
	BytesPerNode float64
	// P99Latency is the exact 99th-percentile issue-to-decision latency
	// over all resolved queries (not a histogram-bucket bound: batching's
	// latency cost is bounded by the coalescing window, far below the
	// metrics registry's bucket resolution).
	P99Latency time.Duration
	// Resolution is the query resolution ratio.
	Resolution float64
	// MeanBatch is the mean member count of shipped batch frames (0 when
	// batching is off or nothing coalesced).
	MeanBatch float64
	// FrameReduction is baseline MsgsPerNode over this cell's (1.0 for
	// the baseline itself); ByteSavings the fraction of baseline
	// BytesPerNode saved.
	FrameReduction float64
	ByteSavings    float64
}

// RunBatching runs one A11 cell. Deterministic in (n, fanIn, window).
func RunBatching(n, fanIn int, window time.Duration) (BatchingRow, error) {
	k := batchingSources
	consumers := n - k - 1
	if consumers < 1 {
		return BatchingRow{}, fmt.Errorf("experiment: batching fleet n=%d too small for %d sources", n, k)
	}
	net := netsim.NewAt(batchingEpoch)

	const gw = "gw"
	link := netsim.LinkConfig{Bandwidth: 8 << 20, Latency: time.Millisecond}
	net.AddNode(gw, nil)
	ids := make([]string, 0, n)
	ids = append(ids, gw)
	srcIDs := make([]string, k)
	for i := 0; i < k; i++ {
		srcIDs[i] = fmt.Sprintf("s%d", i)
		net.AddNode(srcIDs[i], nil)
		if err := net.AddLink(gw, srcIDs[i], link); err != nil {
			return BatchingRow{}, err
		}
		ids = append(ids, srcIDs[i])
	}
	conIDs := make([]string, consumers)
	for i := 0; i < consumers; i++ {
		conIDs[i] = fmt.Sprintf("c%d", i)
		net.AddNode(conIDs[i], nil)
		if err := net.AddLink(gw, conIDs[i], link); err != nil {
			return BatchingRow{}, err
		}
		ids = append(ids, conIDs[i])
	}

	// One telemetry stream per source; sizes vary deterministically in
	// the 8–32 KB band so batches mix member sizes.
	descs := make([]object.Descriptor, k)
	meta := make(boolexpr.MetaTable, k)
	labels := make([]string, k)
	for i := range descs {
		labels[i] = fmt.Sprintf("l%d", i)
		size := int64(8_000 + (i*1619)%24_000)
		descs[i] = object.Descriptor{
			Name:     names.MustParse("/src/" + srcIDs[i]),
			Size:     size,
			Source:   srcIDs[i],
			Labels:   []string{labels[i]},
			Validity: 5 * time.Minute,
			ProbTrue: 0.9,
		}
		meta[labels[i]] = boolexpr.Meta{Cost: float64(size), ProbTrue: 0.9, Validity: 5 * time.Minute}
	}
	expr, err := boolexpr.Parse(strings.Join(labels, " & "))
	if err != nil {
		return BatchingRow{}, err
	}
	dnf := boolexpr.ToDNF(expr)

	reg := metrics.NewRegistry()
	auth := trust.NewAuthority()
	dir := athena.NewDirectory(descs)
	nodes := make(map[string]*athena.Node, n)
	for i, id := range ids {
		var desc *object.Descriptor
		if i >= 1 && i <= k {
			desc = &descs[i-1]
		}
		node, err := athena.New(athena.Config{
			ID:               id,
			Transport:        transport.NewSim(net, id),
			Router:           net,
			Timers:           athena.LaneTimers{Lane: net.LaneOf(id)},
			Scheme:           athena.SchemeLVF,
			Directory:        dir,
			Meta:             meta,
			World:            allTrue{},
			Authority:        auth,
			Signer:           auth.Register(id, []byte("k-"+id)),
			Policy:           trust.TrustAll(),
			Descriptor:       desc,
			CacheBytes:       8 << 20,
			SequentialWindow: fanIn,
			CoalesceWindow:   window,
			Metrics:          reg,
		})
		if err != nil {
			return BatchingRow{}, err
		}
		nodes[id] = node
	}

	// Stagger consumer queries over the issue window; each consumer must
	// gather all k streams to resolve its conjunction.
	for i, id := range conIDs {
		offset := time.Duration(i) * batchingStagger / time.Duration(consumers)
		node := nodes[id]
		err := net.AtNode(id, batchingEpoch.Add(offset), func() {
			if _, err := node.QueryInit(dnf, batchingDeadline); err != nil {
				panic(fmt.Sprintf("experiment: batching QueryInit: %v", err))
			}
		})
		if err != nil {
			return BatchingRow{}, err
		}
	}
	if err := net.RunUntil(batchingEpoch.Add(batchingStagger+batchingDeadline+batchingSlack), 0); err != nil {
		return BatchingRow{}, err
	}

	var agg athena.Stats
	for _, node := range nodes {
		agg.Add(node.Stats())
	}
	netStats := net.Stats()
	row := BatchingRow{
		Label:        fmt.Sprintf("n=%d f=%d w=%s", n, fanIn, windowLabel(window)),
		Nodes:        n,
		FanIn:        fanIn,
		Window:       window,
		MsgsPerNode:  float64(agg.DataFrames) / float64(n),
		BytesPerNode: float64(netStats.BytesSent) / float64(n),
		Resolution:   1,
	}
	if agg.QueriesIssued > 0 {
		row.Resolution = float64(agg.ResolvedTrue+agg.ResolvedFalse) / float64(agg.QueriesIssued)
	}
	var lats []time.Duration
	for _, node := range nodes {
		for _, r := range node.Results() {
			if r.Status.Resolved() {
				lats = append(lats, r.Finished.Sub(r.Issued))
			}
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		row.P99Latency = lats[(len(lats)-1)*99/100]
	}
	if agg.BatchesSent > 0 {
		row.MeanBatch = float64(agg.BatchedMsgs) / float64(agg.BatchesSent)
	}
	return row, nil
}

func windowLabel(w time.Duration) string {
	if w <= 0 {
		return "off"
	}
	return w.String()
}

// AblationBatching (A11) sweeps fleet size × fan-in × coalescing window,
// normalizing every batched cell against its (n, fan-in) unbatched
// baseline. A nil sizes slice runs {64, 512, 2048}.
func AblationBatching(sizes []int) ([]BatchingRow, error) {
	if len(sizes) == 0 {
		sizes = []int{64, 512, 2048}
	}
	windows := []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond}
	fanIns := []int{2, 8}
	var rows []BatchingRow
	for _, n := range sizes {
		for _, f := range fanIns {
			var base BatchingRow
			for i, w := range windows {
				row, err := RunBatching(n, f, w)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					base = row
				}
				if row.MsgsPerNode > 0 {
					row.FrameReduction = base.MsgsPerNode / row.MsgsPerNode
				}
				if base.BytesPerNode > 0 {
					row.ByteSavings = 1 - row.BytesPerNode/base.BytesPerNode
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderBatching prints the A11 table.
func RenderBatching(rows []BatchingRow) string {
	var b strings.Builder
	b.WriteString("Ablation A11: data-plane batching — frames/bytes per node vs coalescing window and fan-in\n")
	fmt.Fprintf(&b, "%-20s%12s%14s%10s%12s%8s%8s%8s\n",
		"config", "msgs/node", "bytes/node", "p99", "resolution", "batch", "frames", "bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s%12.1f%14.0f%10s%12.3f%8.1f%7.2fx%7.1f%%\n",
			r.Label, r.MsgsPerNode, r.BytesPerNode,
			r.P99Latency.Round(time.Millisecond), r.Resolution,
			r.MeanBatch, r.FrameReduction, 100*r.ByteSavings)
	}
	return b.String()
}
