package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span kinds. A top span is an entry into a node from outside: a message
// handler, a timer callback or a QueryInit. The others are calls a node
// makes out through an interface it was given, and nest inside whichever
// top span is running. Decode runs on the transport's reader goroutines,
// outside any node entry, so it has no parent.
const (
	spanHandle = iota
	spanTimer
	spanQueryInit
	spanSend
	spanNextHop
	spanEncode
	spanDecode
	spanTruth
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"athena.handle", "athena.timer", "athena.queryinit",
	"transport.send", "router.nexthop", "wire.encode", "wire.decode", "annotate.truth",
}

// span is one recorded interval. Times are nanoseconds since the tracer
// was made. parent indexes the same node's span list, -1 for none. wait
// is the part of a top span spent queueing for the node before it ran.
// bytes is the frame size for send and encode spans. qid is the decision
// the payload named, where it named one.
type span struct {
	kind       uint8
	parent     int32
	start, end int64
	wait       int64
	bytes      int64
	qid        string
}

// nodeTrace is one node's span buffer. Only code running on behalf of that
// node writes it, and mu orders those writers.
//
// mu is held for the whole of a top span. A node serialises its entries
// on its own mutex anyway, so holding this one around them changes no
// ordering; it makes "the top span now running" well defined, which is
// what lets a nested span find its parent, and the time spent acquiring
// it is the time the entry would have queued for the node.
type nodeTrace struct {
	id    string
	epoch time.Time
	mu    sync.Mutex
	spans []span
	cur   int32 // innermost open span, -1 outside any

	// Decode spans arrive from reader goroutines concurrently with the
	// node's own entries; they get their own list and lock.
	dmu     sync.Mutex
	decodes []span
}

func (t *nodeTrace) now() int64 { return int64(wallNow().Sub(t.epoch)) }

// top runs fn as a top span, holding mu for its whole length.
func (t *nodeTrace) top(kind uint8, qid string, fn func()) {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: -1, start: start, wait: t.now() - start, qid: qid})
	t.cur = i
	fn()
	t.spans[i].end = t.now()
	t.cur = -1
}

// begin opens a span nested in whatever is running. Nodes make their
// outward calls from inside an entry, with mu held by top. The one call
// made outside any is a simulated node re-announcing itself after churn,
// on its own lane; its spans have no parent.
func (t *nodeTrace) begin(kind uint8, qid string) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: t.cur, start: t.now(), qid: qid})
	t.cur = i
	return i
}

func (t *nodeTrace) end(i int32, bytes int64) {
	s := &t.spans[i]
	s.end = t.now()
	s.bytes = bytes
	t.cur = s.parent
}

func (t *nodeTrace) decoded(start, end, bytes int64, qid string) {
	t.dmu.Lock()
	t.decodes = append(t.decodes, span{kind: spanDecode, parent: -1, start: start, end: end, bytes: bytes, qid: qid})
	t.dmu.Unlock()
}

// tracer owns the per-node buffers of one traced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	nodes map[string]*nodeTrace
}

func newTracer() *tracer {
	return &tracer{epoch: wallNow(), nodes: make(map[string]*nodeTrace)}
}

// node returns the buffer for a node id, creating it on first use.
func (tr *tracer) node(id string) *nodeTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.nodes[id]
	if !ok {
		t = &nodeTrace{id: id, epoch: tr.epoch, cur: -1}
		tr.nodes[id] = t
	}
	return t
}

// nodeSpans is one node's finished span list.
type nodeSpans struct {
	id    string
	spans []span
}

// collect takes every node's spans, decode spans appended, in id order.
// Over sockets a stopped fleet still has timers pending that will fire
// into the decorators later; taking the lists under each node's locks
// leaves those late spans a fresh list of their own to land in.
func (tr *tracer) collect() []nodeSpans {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]nodeSpans, 0, len(tr.nodes))
	for _, t := range tr.nodes {
		t.mu.Lock()
		t.dmu.Lock()
		out = append(out, nodeSpans{id: t.id, spans: append(t.spans, t.decodes...)})
		t.spans, t.decodes = nil, nil
		t.dmu.Unlock()
		t.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// selfTimes returns, for every span, its duration minus the part of it
// that its child spans cover. Children may overlap one another (they
// cannot when one goroutine makes them, but nothing here relies on that):
// the covered part is the union of the children, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			from, to := spans[k].start, spans[k].end
			if from < reach {
				from = reach
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotals is the per-kind summary the per-layer metrics are read from.
type spanTotals struct {
	calls    [numSpanKinds]int64
	total    [numSpanKinds]int64 // summed durations, ns
	self     [numSpanKinds]int64 // summed self times less queueing, ns
	wait     [numSpanKinds]int64 // summed queueing of top spans, ns
	bytes    [numSpanKinds]int64
	sendNs   []float64 // every send span's duration, for its percentile
	topTotal int64     // summed durations of top spans, ns
}

func summarizeSpans(nodes []nodeSpans) spanTotals {
	var t spanTotals
	for _, n := range nodes {
		self := selfTimes(n.spans)
		for i, s := range n.spans {
			t.calls[s.kind]++
			t.total[s.kind] += s.end - s.start
			t.self[s.kind] += self[i] - s.wait
			t.wait[s.kind] += s.wait
			t.bytes[s.kind] += s.bytes
			if s.kind == spanSend {
				t.sendNs = append(t.sendNs, float64(s.end-s.start))
			}
			if s.kind <= spanQueryInit {
				t.topTotal += s.end - s.start
			}
		}
	}
	return t
}

// writeTrace writes the merged spans as one JSON document:
//
//	{"workload":..., "kinds":[...], "nodes":[...], "columns":[...], "spans":[[...],...]}
//
// with one row per span in the column order given. A row's parent is the
// row index of its parent span within the file, or -1. Rows are grouped
// by node and keep each node's recording order, so a parent always comes
// before its children.
func writeTrace(dir, workload string, nodes []nodeSpans) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"time_unit\":\"ns since tracer start\",\"kinds\":[", workload)
	for i, name := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", name)
	}
	w.WriteString("],\"nodes\":[")
	for i, n := range nodes {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n.id)
	}
	w.WriteString("],\"columns\":[\"kind\",\"node\",\"start\",\"end\",\"parent\",\"wait\",\"bytes\",\"query\"],\"spans\":[\n")
	var buf []byte
	base, first := 0, true
	for ni, n := range nodes {
		for _, s := range n.spans {
			buf = buf[:0]
			if !first {
				buf = append(buf, ",\n"...)
			}
			first = false
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(base) + int64(s.parent)
			}
			buf = append(buf, '[')
			for i, v := range [...]int64{int64(s.kind), int64(ni), s.start, s.end, parent, s.wait, s.bytes} {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, v, 10)
			}
			buf = append(buf, ',')
			buf = strconv.AppendQuote(buf, s.qid)
			buf = append(buf, ']')
			w.Write(buf)
		}
		base += len(n.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
