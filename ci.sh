#!/bin/sh
# CI gate: formatting, compile, vet, the full test suite under the race
# detector, and (full mode only) an aggregate coverage floor plus the
# count-regression gates against the committed benchmark baseline.
#
#   ./ci.sh          full gate, as run before every merge
#   ./ci.sh -short   inner-loop variant: passes -short to the race suite,
#                    skipping the long simulation sweeps and the coverage
#                    and allocation gates (a -short run exercises less
#                    code by design)
set -eux

# Minimum aggregate statement coverage, in tenths of a percent (830 =
# 83.0%). Set just under the measured total so coverage can only ratchet
# up; raise it when the measured number climbs.
COVER_FLOOR=830

short=0
case "${1:-}" in
-short) short=1 ;;
"") ;;
*)
	echo "usage: $0 [-short]" >&2
	exit 2
	;;
esac

unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
# The newest CHANGES.md entry, from its last line that starts "- " to the
# end of the file, is at most 25 lines of at most 100 columns (ROADMAP
# item 21). A column is a rune: in the C locale a byte that continues a
# UTF-8 sequence (octal 200-277) is not counted. Older entries predate the
# rule and are not read.
LC_ALL=C awk '
	/^- / { start = NR }
	{ s = $0; gsub(/[\200-\277]/, "", s); width[NR] = length(s) }
	END {
		bad = 0
		if (NR - start + 1 > 25) {
			printf "CHANGES.md: the newest entry has %d lines, over 25\n", NR - start + 1
			bad = 1
		}
		for (i = start; i <= NR; i++) {
			if (width[i] > 100) {
				printf "CHANGES.md:%d: %d columns, over 100\n", i, width[i]
				bad = 1
			}
		}
		exit bad
	}' CHANGES.md
go build ./...
go vet ./...
# bench/ is a module of its own (the repo benchmark, BENCHMARK.json), so
# ./... does not reach it; compile and test it here or an API break only
# shows when the benchmark driver runs.
go vet -C bench .
go test -C bench .
# Repo-specific invariants: determinism, lock discipline, lane
# isolation, wire-protocol exhaustiveness, metrics nil-safety, goroutine
# lifecycle, dropped transport errors. The run is budgeted: the gate
# loads and type-checks the whole module plus a call-graph fixpoint, and
# a pass that creeps past 90 seconds of wall time is a gate developers
# will start skipping.
lint_start="$(date +%s)"
go run ./cmd/athena-lint ./...
lint_elapsed="$(($(date +%s) - lint_start))"
if [ "$lint_elapsed" -gt 90 ]; then
	echo "athena-lint took ${lint_elapsed}s, over the 90s wall-time budget" >&2
	exit 1
fi

# ROADMAP item 1's fault-schedule draw: seeded schedules of loss, link and
# node outages (churn, with rejoin) and partitions on the four chaos
# fleets, with every fleet invariant checked at checkpoints and at
# quiescence. A violation prints the seed, the shortest failing schedule
# prefix and the command that replays it, and fails the gate. The seed
# count is budgeted (`make chaos` runs more): a step that creeps past 60
# seconds fails too.
chaos_start="$(date +%s)"
go run ./cmd/athena-sim -fig chaos -reps 12 -seed 1
chaos_elapsed="$(($(date +%s) - chaos_start))"
if [ "$chaos_elapsed" -gt 60 ]; then
	echo "the chaos step took ${chaos_elapsed}s, over its 60s budget" >&2
	exit 1
fi

if [ "$short" = 1 ]; then
	go test -race -short ./...
	exit 0
fi

go test -race -coverprofile=coverage.out ./...
go tool cover -func=coverage.out
total="$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
# Compare in tenths of a percent to stay POSIX-sh (no float arithmetic).
tenths="$(echo "$total" | awk '{printf "%d", $1 * 10}')"
if [ "$tenths" -lt "$COVER_FLOOR" ]; then
	echo "coverage $total% is below the $(awk "BEGIN{print $COVER_FLOOR / 10}")% floor" >&2
	exit 1
fi

# Regression gates against the committed baseline (BENCH_core.json, see
# `make bench`), all through one mechanism: benchjson -check fails if a
# gated number is missing from the baseline, its benchmark did not run,
# or the run exceeds baseline + 10%. The gated numbers are counts, which
# unlike ns/op are stable across machines, so a trip means a real
# regression (each benchmark's doc comment in bench_test.go says of
# what: an allocating per-query or per-event path, a decision engine that
# allocates to answer a question or plans a query twice, a leakier retention
# filter — a record scoped by its name's shard again: 468.8 entries/node,
# 913 when the name's shard kept a record too — a coalescing layer that stopped merging, an object delivery
# that pays for a node's finished queries, an event queue that allocates
# at the depth the simulator runs it at, a wire encoder whose state
# escapes to the heap — baseline 0 for both, so any allocation trips
# them; a Sec. VII lvf run that sends frames no decision's evidence is
# owed — 4.514 frames/decision, 64.43 when each query's expression was
# flooded two hops for sources to push ahead of requests; a sharded
# source selection that grew back a copy of the cover's bookkeeping
# beside the full replica's, or a cover that counts gains through maps
# again, or a selection that
# allocates its candidate buffers per call again — on a full replica too,
# whose cover reads its directory view into the node's scratch: 6
# allocs/op, 14 when it grew its candidate list from nil under the
# directory lock; a scoped directory delta
# sized for the whole directory — baseline 0; a shard router that
# recomputes placement for a membership view it already has — baseline 0 —
# or ranks the members again to start a lookup on one; a query whose
# sources are re-selected on every lookup reply instead of once, when its
# last lookup lands; a scenario
# generator whose route search allocates per extracted intersection; a
# bulk frame whose zero padding is built in the encode buffer again
# instead of written by the transport — frame-B/op, the bytes an encode
# writes, is ~0.1 KB of a 500 KB frame; a small-frame decode through a
# connection's warmed decoder that copies the ids, names and labels its
# intern table holds again — 3, 7 and 6 allocs/op for a request, a share
# and a ping4, 9, 17 and 25 when every string was copied; a TCP
# reader that holds its largest frame again instead of one 64 KB chunk —
# held-B/op, the heap an open connection keeps after 1 MB frames, is
# ~62 KB, and ~1 MB when frames are read whole; a finished decision whose
# wall-clock timers are left to fire instead of stopped — held-B/op, the
# heap a closed and dropped socket pair still holds per decision, is 0
# once its nodes are collected and ~3 KB while armed timers pin them; a
# query planner that looks a label's metadata up per comparison again, or
# allocates per term — 2 allocs/op at -benchtime 3x, 21 when it did; a
# node that verifies, or copies, a shared label record it already holds —
# baseline 0, 3 when every arriving record was copied; a batch pump that
# walks the directory for its targets again instead of its query's target
# table — 15 allocs/op, requestObject's own, and 40 when it walked; a
# shard owner whose lookup reply copies each covering record's labels
# again, or makes its shard's listing per lookup — 1 allocs/op, the
# reply, 2 with a listing per lookup, 6 when it copied;
# a SWIM probe round whose piggyback takes box, reflect-sort and copy
# their updates again — 4 allocs/op, two frames and their update lists,
# 10 when they did; a Sec. VII lvfl run whose fetch path allocates more
# than its frames again — growing a request's labels by append, a slice
# per cached label, a queue re-sliced from the front, a closure and an
# event per drain, a copy of the labels per data message, a string key
# per forwarded request: 5 024 allocs/op, 5 497 when it did, so its slack
# is 5 %, not 10 (the count moves by one or two run to run); a content
# store whose put allocates a list element again — 2 allocs/op, the entry
# and its index node, 3 with a container/list element; a sharded fleet
# whose control plane backfills shards a node kept all along, or parses
# adverts its directory already declined, or sends each lookup to its
# shard's primary instead of the nearest replica, or asks a label's shard
# instead of its region's — BenchmarkKernelFleet/seed2's frames/decision
# and lookups/decision are pure functions of the seed, so their slack is
# 1 %: 119.7 frames and 3.667 lookups, 152.4 and 14.19 with a lookup per
# label, 170.7 frames asking the primary, 189.1 with the backfill; its
# allocs/op at 5 %: about 98 400, 134 800 with a lookup per label,
# 154 900 with the backfill, both taken when it was about 123 800).
# Refresh the baseline with `make bench` when an intentional change moves
# one.
# BenchmarkDecisionEngine, BenchmarkShardLookupBegin,
# BenchmarkLookupReplies, BenchmarkShardLookupServe, BenchmarkSwimProbeRound,
# BenchmarkTCPReceivePadded and BenchmarkTCPClosedPairHeld have no
# sub-benchmarks, and a two-level -bench pattern skips a benchmark that has
# none, so each gets its own run (the four lookup and probe benchmarks in
# internal/athena share one). BenchmarkDirectoryMemory runs without
# -benchmem, as `make bench` records it: only its entries/node is gated.
# The runs' output goes to a file that is copied to stderr and then read
# by benchjson: a `tee /dev/stderr` would reopen fd 2, and under
# `./ci.sh > log 2>&1` that truncates the log, losing every earlier step.
# The runs are chained with `&&`: `set -e` does not act on the left side of
# `||`, so without the chain only the last run's failure would fail CI.
bench_out="$(mktemp)"
trap 'rm -f "$bench_out"' EXIT
{
	go test -run '^$' -bench '^Benchmark(Scheme|SimKernel|KernelFleet|BatchedFetch|DeliverObjectHistory|SelectSources|DirectoryDelta|ShardRefresh|LaneQueue|EncodeSmall|EncodeObjectData|DecodeSmall|Generate|PlanFor|LabelShare|PumpBatch|StorePut)$/^(lvf|lvfl|full|sharded|sharded-owned|scoped|unchanged|w1|seed2|on|n2000|depth512|request|share|ping4|head|sec7|uncached|held|cmp|replace)$' -benchmem -benchtime 3x . ./internal/athena ./internal/simclock ./internal/wire ./internal/workload ./internal/cache &&
	go test -run '^$' -bench '^BenchmarkDirectoryMemory$/^sharded$' -benchtime 3x . &&
	go test -run '^$' -bench '^BenchmarkDecisionEngine$' -benchmem -benchtime 3x . &&
	go test -run '^$' -bench '^Benchmark(ShardLookupBegin|LookupReplies|ShardLookupServe|SwimProbeRound)$' -benchmem -benchtime 3x ./internal/athena &&
	go test -run '^$' -bench '^BenchmarkTCPReceivePadded$' -benchmem -benchtime 3x ./internal/transport &&
	go test -run '^$' -bench '^BenchmarkTCPClosedPairHeld$' -benchmem -benchtime 3x ./internal/athena
} >"$bench_out" || {
	cat "$bench_out" >&2
	exit 1
}
cat "$bench_out" >&2
go run ./cmd/benchjson -check BENCH_core.json <"$bench_out" \
		-gate 'BenchmarkScheme/lvf:allocs/op:10' \
		-gate 'BenchmarkScheme/lvfl:allocs/op:5' \
		-gate 'BenchmarkScheme/lvfl:frames/decision:10' \
		-gate 'BenchmarkDecisionEngine:allocs/op:10' \
		-gate 'BenchmarkScheme/lvf:frames/decision:10' \
		-gate 'BenchmarkDirectoryMemory/sharded:entries/node:10' \
		-gate 'BenchmarkSimKernel/w1:allocs/op:10' \
		-gate 'BenchmarkKernelFleet/seed2:frames/decision:1' \
		-gate 'BenchmarkKernelFleet/seed2:lookups/decision:1' \
		-gate 'BenchmarkKernelFleet/seed2:allocs/op:5' \
		-gate 'BenchmarkBatchedFetch/on:frames/node:10' \
		-gate 'BenchmarkDeliverObjectHistory/n2000:allocs/op:10' \
		-gate 'BenchmarkSelectSources/full:allocs/op:10' \
		-gate 'BenchmarkSelectSources/sharded:allocs/op:10' \
		-gate 'BenchmarkSelectSources/sharded-owned:allocs/op:10' \
		-gate 'BenchmarkDirectoryDelta/scoped:B/op:10' \
		-gate 'BenchmarkShardRefresh/unchanged:allocs/op:10' \
		-gate 'BenchmarkShardLookupBegin:allocs/op:10' \
		-gate 'BenchmarkLookupReplies:allocs/op:10' \
		-gate 'BenchmarkShardLookupServe:allocs/op:10' \
		-gate 'BenchmarkSwimProbeRound:allocs/op:10' \
		-gate 'BenchmarkLaneQueue/depth512:allocs/op:10' \
		-gate 'BenchmarkEncodeSmall/request:allocs/op:10' \
		-gate 'BenchmarkEncodeObjectData/head:frame-B/op:10' \
		-gate 'BenchmarkDecodeSmall/request:allocs/op:10' \
		-gate 'BenchmarkDecodeSmall/share:allocs/op:10' \
		-gate 'BenchmarkDecodeSmall/ping4:allocs/op:10' \
		-gate 'BenchmarkGenerate/sec7:allocs/op:10' \
		-gate 'BenchmarkTCPReceivePadded:held-B/op:10' \
		-gate 'BenchmarkTCPClosedPairHeld:held-B/op:10' \
		-gate 'BenchmarkPlanFor/uncached:allocs/op:10' \
		-gate 'BenchmarkLabelShare/held:allocs/op:10' \
		-gate 'BenchmarkPumpBatch/cmp:allocs/op:10' \
		-gate 'BenchmarkStorePut/replace:allocs/op:10'
