// Package trace records where a decision's time went, hop by hop: the
// spans a node (and the simulated network under it) reports as one query
// crosses it — planning, source selection, shard lookups, the frames sent
// for it, each frame's link queue wait, serialization and propagation,
// coalescing holds, retries, answers, annotation and engine sets — keyed
// by query id. WriteChrome writes them as Chrome/Perfetto trace events,
// one track per node.
//
// It keeps internal/metrics' contract: a nil *Recorder is a valid no-op
// whose methods allocate nothing, so a node holds one unconditionally, and
// recording never changes what a run does — a traced run's outcome is the
// untraced run's, byte for byte. Under the simulator every span is on the
// virtual clock, and the kernel runs one event at a time, so two traced
// runs of one seed write the same bytes.
package trace

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Kind is what a span measured.
type Kind uint8

// The span kinds, one per stage a decision crosses.
const (
	// Plan is the query's retrieval plan, made at issue.
	Plan Kind = iota
	// Select is a source selection (at issue, and each re-selection); the
	// detail lists the sources picked.
	Select
	// Lookup is a routed shard lookup, from its start to its answer or
	// abandonment, recorded for every query that waited on it.
	Lookup
	// Send is one frame naming the query handed to a link; the detail is
	// the frame's type and the neighbor.
	Send
	// Queue is a frame's wait behind other frames on its link.
	Queue
	// Serialize is a frame's serialization onto its link.
	Serialize
	// Propagate is a frame's propagation over its link.
	Propagate
	// Hold is a message's wait in a coalescing queue; the detail is the
	// flush rule that ended it (budget, slack, burst or window).
	Hold
	// Retry is a recovery step: a request timeout, a failover to another
	// source, or a forwarder's retransmission.
	Retry
	// Answer is a request answered from a cache on the way: a label
	// record or a stored object.
	Answer
	// Annotate is a label computed from a delivered object.
	Annotate
	// Set is a label value entering the query's decision engine.
	Set
	numKinds
)

var kindNames = [numKinds]string{
	"plan", "select", "lookup", "send", "queue", "serialize", "propagate",
	"hold", "retry", "answer", "annotate", "set",
}

// String returns the kind's name as WriteChrome prints it.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "kind" + strconv.Itoa(int(k))
}

// Span is one recorded interval (Start == End for an instant) at Node on
// behalf of Query.
type Span struct {
	Node   string
	Query  string
	Kind   Kind
	Start  time.Time
	End    time.Time
	Detail string
}

// Recorder collects spans. It is safe for concurrent use; the nil
// Recorder records nothing.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Span records an interval.
func (r *Recorder) Span(node, query string, k Kind, start, end time.Time, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Node: node, Query: query, Kind: k, Start: start, End: end, Detail: detail})
	r.mu.Unlock()
}

// Event records an instant.
func (r *Recorder) Event(node, query string, k Kind, at time.Time, detail string) {
	r.Span(node, query, k, at, at, detail)
}

// On reports whether the recorder records: call sites that build a detail
// string check it first, so the untraced path builds nothing.
func (r *Recorder) On() bool { return r != nil }

// Spans returns a copy of every span recorded so far, in record order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Query returns the spans recorded for one query, in record order.
func (r *Recorder) Query(id string) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Query == id {
			out = append(out, s)
		}
	}
	return out
}

// WriteChrome writes every span as a Chrome trace-event JSON document
// (chrome://tracing, ui.perfetto.dev): one process, one thread (track) per
// node in name order, complete ("X") events with microsecond times from
// epoch, the query id and detail as arguments. Events on a track are in
// start order, ties in record order, so the output is a function of the
// spans alone.
func (r *Recorder) WriteChrome(w io.Writer, epoch time.Time) error {
	spans := r.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Node != spans[j].Node {
			return spans[i].Node < spans[j].Node
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	tid, node := 0, ""
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		if i == 0 || s.Node != node {
			tid++
			node = s.Node
			bw.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
			bw.WriteString(strconv.Itoa(tid))
			bw.WriteString(`,"args":{"name":`)
			bw.WriteString(strconv.Quote(s.Node))
			bw.WriteString(`}},`)
		}
		bw.WriteString(`{"name":`)
		bw.WriteString(strconv.Quote(s.Kind.String()))
		bw.WriteString(`,"cat":"athena","ph":"X","pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(tid))
		bw.WriteString(`,"ts":`)
		bw.WriteString(micros(s.Start.Sub(epoch)))
		bw.WriteString(`,"dur":`)
		bw.WriteString(micros(s.End.Sub(s.Start)))
		bw.WriteString(`,"args":{"query":`)
		bw.WriteString(strconv.Quote(s.Query))
		if s.Detail != "" {
			bw.WriteString(`,"detail":`)
			bw.WriteString(strconv.Quote(s.Detail))
		}
		bw.WriteString(`}}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// micros formats d in microseconds with nanosecond precision.
func micros(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'f', 3, 64)
}
