package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	iathena "athena/internal/athena"
	"athena/internal/metrics"
)

// addStats sums one node's counters into dst. Outcome.Node leaves out the
// Shard*, PlanCacheHits and DupSuppressed fields, so the per-layer
// counters are summed here from every node's Stats(). Every field of
// Stats is an integer count.
func addStats(dst *iathena.Stats, src iathena.Stats) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + s.Field(i).Int())
	}
}

// addSnapshot sums a registry snapshot's counters into dst.
func addSnapshot(dst *metrics.Snapshot, src metrics.Snapshot) {
	if dst.Counters == nil {
		dst.Counters = make(map[string]int64)
	}
	for name, v := range src.Counters {
		dst.Counters[name] += v
	}
}

// layerMetrics ends a traced run. It writes the span file and returns
// the per-layer metrics that are read the same way on the simulator and
// over sockets, for the caller to add its own to: the node's entry points
// from the spans; the protocol, cache, membership and sharding counters
// from the program's own Stats and registry; and the unit drivers. per is
// the number of decisions the spans and counters cover.
func layerMetrics(workload string, p params, tr *tracer, st iathena.Stats, snap metrics.Snapshot, per float64, log io.Writer) (map[string]float64, spanTotals, error) {
	nodes := tr.collect()
	path, err := writeTrace(p.outDir, workload, nodes)
	if err != nil {
		return nil, spanTotals{}, err
	}
	sp := summarizeSpans(nodes)
	fmt.Fprintf(log, "%s: traced %.0f decisions; spans in %s\n", workload, per, path)

	vals, err := runUnitDrivers(workload, p)
	if err != nil {
		return nil, sp, err
	}
	us := func(ns int64) float64 { return micros(time.Duration(ns)) / per }
	count := func(n int) float64 { return float64(n) / per }

	vals["athena.queryinit_us"] = us(sp.total[spanQueryInit])
	vals["athena.handle_self_us"] = us(sp.self[spanHandle])
	vals["athena.handle_wait_us"] = us(sp.wait[spanHandle])
	vals["athena.handle_calls"] = float64(sp.calls[spanHandle]) / per
	vals["athena.timer_self_us"] = us(sp.self[spanTimer])
	vals["athena.timer_calls"] = float64(sp.calls[spanTimer]) / per
	vals["athena.nexthop_us"] = us(sp.total[spanNextHop])
	vals["athena.nexthop_calls"] = float64(sp.calls[spanNextHop]) / per
	vals["annotate.calls"] = float64(sp.calls[spanTruth]) / per
	// trust.Signer is a struct and cannot be decorated: every annotation
	// is signed once, and one signature costs what the unit driver says
	// (0 where that driver does not run).
	vals["trust.sign_calls"] = count(st.Annotations)
	vals["trust.sign_us"] = vals["trust.sign_calls"] * vals["trust.sign_ns"] / 1e3

	vals["athena.expired_share"] = ratio(float64(st.Expired), float64(st.QueriesIssued))
	vals["athena.requests"] = count(st.RequestsSent)
	vals["athena.refetches"] = count(st.Refetches)
	vals["athena.retransmits"] = count(st.Retransmits)
	vals["athena.request_timeouts"] = count(st.RequestTimeouts)
	vals["athena.dup_suppressed"] = count(st.DupSuppressed)
	vals["athena.label_answer_share"] = ratio(float64(st.LabelAnswers), float64(st.RequestsSent))
	vals["athena.plan_cache_hit_ratio"] = ratio(float64(st.PlanCacheHits), float64(st.QueriesIssued))

	hits := float64(snap.Counter("cache.hits") + snap.Counter("cache.approx_hits"))
	vals["cache.hit_ratio"] = ratio(hits, hits+float64(snap.Counter("cache.misses")))
	vals["cache.evictions"] = float64(snap.Counter("cache.evictions")) / per
	vals["interest.inserts"] = float64(snap.Counter("interest.inserts")) / per
	vals["interest.expiries"] = float64(snap.Counter("interest.expiries")) / per

	vals["coalesce.batch_share"] = ratio(float64(st.BatchedMsgs), float64(st.DataFrames))
	vals["coalesce.members_per_batch"] = ratio(float64(st.BatchedMsgs), float64(st.BatchesSent))
	vals["membership.ctl_kb"] = float64(st.ControlBytes) / 1e3 / per
	vals["membership.ctl_msgs"] = count(st.ControlMsgs)
	vals["membership.suspicions"] = count(st.Suspicions)
	vals["membership.evictions"] = count(st.Evictions)
	vals["shard.lookups"] = count(st.ShardLookups)
	vals["shard.lookup_hit_ratio"] = ratio(float64(st.ShardLookupHits), float64(st.ShardLookups+st.ShardLookupHits))
	vals["shard.reroutes"] = count(st.ShardReroutes)
	return vals, sp, nil
}
