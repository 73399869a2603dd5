package athena

import (
	"time"

	"athena/internal/netsim"
	"athena/internal/trace"
)

// This file is what the node reports to its trace recorder
// (Config.Trace) beyond the calls at the sites themselves: the frames
// that name queries, and the adaptor that turns the simulated network's
// link timings into per-query spans. Every function here returns at once
// when tracing is off.

// traceSend records a frame naming a query put on the link to neighbor,
// once per query it names. Callers hold n.mu.
func (n *Node) traceSend(neighbor string, msg frame) {
	if !n.trace.On() {
		return
	}
	now := n.now()
	queriesOf(msg, func(kind, qid string) {
		n.trace.Event(n.id, qid, trace.Send, now, kind+" to "+neighbor)
	})
}

// queriesOf calls fn with the type and query id of every query message a
// frame carries: one for a request, a data frame or a label share, one per
// member for a batch, none for control traffic.
func queriesOf(payload any, fn func(kind, qid string)) {
	switch m := payload.(type) {
	case *ObjectRequest:
		fn("request", m.QueryID)
	case *ObjectData:
		fn("data", m.QueryID)
	case *LabelShare:
		if m.QueryID != "" {
			fn("labels", m.QueryID)
		}
	case *RequestBatch:
		for i := range m.Requests {
			fn("request", m.Requests[i].QueryID)
		}
	case *DataBatch:
		for i := range m.Items {
			fn("data", m.Items[i].QueryID)
		}
	}
}

// linkTrace is the network's link trace for a traced cluster: each
// delivered query frame's queue wait, serialization and propagation, on
// the sender's track.
func linkTrace(rec *trace.Recorder) netsim.LinkTrace {
	return func(from, to string, payload any, queued, sent, done, arrived time.Time) {
		queriesOf(payload, func(kind, qid string) {
			detail := kind + " to " + to
			rec.Span(from, qid, trace.Queue, queued, sent, detail)
			rec.Span(from, qid, trace.Serialize, sent, done, detail)
			rec.Span(from, qid, trace.Propagate, done, arrived, detail)
		})
	}
}
