package main

import (
	"fmt"
	"math"
)

// The metric tables. BENCHMARK.json repeats them for the driver;
// TestBenchmarkJSONMatchesTables keeps the two in step.

// metric names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// worsening turns a relative shift of the metric into how much worse it
// got: the shift itself where lower is better, its negative otherwise.
func (m metric) worsening(shift float64) float64 {
	if m.Better == "higher" {
		return -shift
	}
	return shift
}

// endToEnd is what a user of the system sees: what one decision costs the
// host, what it puts on the wire, whether it was decided by its deadline
// and how long that took. Every workload reports every one, and none is
// ever zero: failures are the result's failed/attempted pair, and the
// share of decisions that met their deadline is resolved_share. See
// README.md for how each bound was chosen.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"decision_wall_us", "us", "lower", 0.25},
	{"decision_cpu_us", "us", "lower", 0.25},
	{"decision_allocs", "count", "lower", 0.10},
	{"decision_alloc_kb", "KB", "lower", 0.10},
	{"decision_wire_kb", "KB", "lower", 0.10},
	{"decision_frames", "count", "lower", 0.05},
	{"resolved_share", "ratio", "higher", 0.02},
	{"decision_latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer is the ladder: one group per module a decision crosses, named
// <module>.<metric>. How each is measured is the letter in the comment:
// T from the traced run's spans, C from counters the program exposes, U
// from a unit driver that calls the layer's public functions directly.
// Per-decision unless the unit says otherwise. A metric that does not
// apply to a workload (wire.* on the simulator, simclock.* over sockets)
// reads 0 there.
var perLayer = []metric{
	// T: node entry points.
	{Name: "athena.queryinit_us", Unit: "us", Better: "lower"},
	{Name: "athena.handle_self_us", Unit: "us", Better: "lower"},
	{Name: "athena.handle_wait_us", Unit: "us", Better: "lower"},
	{Name: "athena.handle_calls", Unit: "count", Better: "lower"},
	{Name: "athena.timer_self_us", Unit: "us", Better: "lower"},
	{Name: "athena.timer_calls", Unit: "count", Better: "lower"},
	{Name: "athena.nexthop_us", Unit: "us", Better: "lower"},
	{Name: "athena.nexthop_calls", Unit: "count", Better: "lower"},
	// T, C: the simulation engines.
	{Name: "simclock.engine_self_us", Unit: "us", Better: "lower"},
	{Name: "simclock.events", Unit: "count", Better: "lower"},
	{Name: "simclock.events_per_s", Unit: "1/s", Better: "higher"},
	// T, C: the simulated network.
	{Name: "netsim.send_us", Unit: "us", Better: "lower"},
	{Name: "netsim.send_calls", Unit: "count", Better: "lower"},
	{Name: "netsim.delivered_share", Unit: "ratio", Better: "higher"},
	{Name: "netsim.dropped", Unit: "count", Better: "lower"},
	{Name: "netsim.lost", Unit: "count", Better: "lower"},
	{Name: "netsim.decision_p99_ms", Unit: "ms", Better: "lower"},
	// T, C: the socket transport.
	{Name: "transport.send_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.send_calls", Unit: "count", Better: "lower"},
	{Name: "transport.send_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.redials", Unit: "count", Better: "lower"},
	{Name: "transport.send_errors", Unit: "count", Better: "lower"},
	{Name: "transport.decision_p99_ms", Unit: "ms", Better: "lower"},
	// T: the wire codec.
	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_kb", Unit: "KB", Better: "lower"},
	// C (+U): signing and annotation.
	{Name: "trust.sign_us", Unit: "us", Better: "lower"},
	{Name: "trust.sign_calls", Unit: "count", Better: "lower"},
	{Name: "annotate.calls", Unit: "count", Better: "lower"},
	// C: retrieval protocol, caches, interest table.
	{Name: "athena.expired_share", Unit: "ratio", Better: "lower"},
	{Name: "athena.requests", Unit: "count", Better: "lower"},
	{Name: "athena.refetches", Unit: "count", Better: "lower"},
	{Name: "athena.retransmits", Unit: "count", Better: "lower"},
	{Name: "athena.request_timeouts", Unit: "count", Better: "lower"},
	{Name: "athena.dup_suppressed", Unit: "count", Better: "lower"},
	{Name: "athena.label_answer_share", Unit: "ratio", Better: "higher"},
	{Name: "athena.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "interest.inserts", Unit: "count", Better: "lower"},
	{Name: "interest.expiries", Unit: "count", Better: "lower"},
	// C: batching, membership, sharded directory (kernel_fleet only).
	{Name: "coalesce.batch_share", Unit: "ratio", Better: "higher"},
	{Name: "coalesce.members_per_batch", Unit: "count", Better: "higher"},
	{Name: "membership.ctl_kb", Unit: "KB", Better: "lower"},
	{Name: "membership.ctl_msgs", Unit: "count", Better: "lower"},
	{Name: "membership.suspicions", Unit: "count", Better: "lower"},
	{Name: "membership.evictions", Unit: "count", Better: "lower"},
	{Name: "shard.lookups", Unit: "count", Better: "lower"},
	{Name: "shard.lookup_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.reroutes", Unit: "count", Better: "lower"},
	// U: decision logic.
	{Name: "boolexpr.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "boolexpr.todnf_ns", Unit: "ns", Better: "lower"},
	{Name: "boolexpr.plan_ns", Unit: "ns", Better: "lower"},
	{Name: "boolexpr.labels_ns", Unit: "ns", Better: "lower"},
	{Name: "core.engine_new_ns", Unit: "ns", Better: "lower"},
	{Name: "core.set_step_ns", Unit: "ns", Better: "lower"},
	{Name: "schedule.lvf_order_ns", Unit: "ns", Better: "lower"},
	// U: stores, names, directory.
	{Name: "cache.put_get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.label_put_get_ns", Unit: "ns", Better: "lower"},
	{Name: "names.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "names.trie_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "athena.directory_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "athena.directory_digest_ns", Unit: "ns", Better: "lower"},
	// U: signatures.
	{Name: "trust.sign_ns", Unit: "ns", Better: "lower"},
	{Name: "trust.verify_ns", Unit: "ns", Better: "lower"},
	// U: codec and sockets.
	{Name: "wire.encode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_small_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_send_1mb_us", Unit: "us", Better: "lower"},
	// U: engines, simulated links, gossip, sharding, scenario generation.
	{Name: "simclock.sched_event_ns", Unit: "ns", Better: "lower"},
	{Name: "simclock.kernel_event_ns", Unit: "ns", Better: "lower"},
	{Name: "simclock.kernel_post_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.send_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "gossip.sampler_next_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.owners_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
	// T: what the tracing itself costs (traced CPU over untraced, minus 1).
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

// value is one reported number in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// withUnits attaches each table entry's unit to its measured number. A
// metric the workload did not fill in reads 0: it does not apply there.
// A number the table does not name is a bug in the workload.
func withUnits(table []metric, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(table))
	for _, m := range table {
		v := got[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the table", name)
		}
	}
	return out, nil
}

// boundOf returns an end-to-end metric's bound.
func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	panic("bench: no end-to-end metric " + name)
}
