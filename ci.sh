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

# Minimum aggregate statement coverage, in tenths of a percent (740 =
# 74.0%). Set just under the measured total so coverage can only ratchet
# up; raise it when the measured number climbs.
COVER_FLOOR=740

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
# filter, a coalescing layer that stopped merging, an object delivery
# that pays for a node's finished queries, an event queue that allocates
# at the depth the simulator runs it at, a wire encoder whose state
# escapes to the heap — baseline 0 for both, so any allocation trips
# them; a query announce that is flooded where nobody prefetches, or
# further than a receiver may act on it; a sharded source selection that
# grew back a copy of the cover's bookkeeping beside the full replica's,
# or a cover that counts gains through maps again; a shard router that
# recomputes placement for a membership view it already has — baseline 0 —
# or ranks the members again to start a lookup on one).
# Refresh the baseline with `make bench` when an intentional change moves
# one.
# BenchmarkDecisionEngine and BenchmarkShardLookupBegin have no
# sub-benchmarks, and a two-level -bench pattern skips a benchmark that has
# none, so each gets its own run.
{
	go test -run '^$' -bench '^Benchmark(Scheme|AblationPrefetch|DirectoryMemory|SimKernel|BatchedFetch|DeliverObjectHistory|SelectSources|ShardRefresh|LaneQueue|EncodeSmall)$/^(lvf|lvfl|sharded|unchanged|w1|on|n2000|depth512|request)$' -benchmem -benchtime 3x . ./internal/athena ./internal/simclock ./internal/wire
	go test -run '^$' -bench '^BenchmarkDecisionEngine$' -benchmem -benchtime 3x .
	go test -run '^$' -bench '^BenchmarkShardLookupBegin$' -benchmem -benchtime 3x ./internal/athena
} |
	tee /dev/stderr |
	go run ./cmd/benchjson -check BENCH_core.json \
		-gate 'BenchmarkScheme/lvf:allocs/op:10' \
		-gate 'BenchmarkScheme/lvfl:frames/decision:10' \
		-gate 'BenchmarkDecisionEngine:allocs/op:10' \
		-gate 'BenchmarkAblationPrefetch/on:frames/decision:10' \
		-gate 'BenchmarkDirectoryMemory/sharded:entries/node:10' \
		-gate 'BenchmarkSimKernel/w1:allocs/op:10' \
		-gate 'BenchmarkBatchedFetch/on:frames/node:10' \
		-gate 'BenchmarkDeliverObjectHistory/n2000:allocs/op:10' \
		-gate 'BenchmarkSelectSources/sharded:allocs/op:10' \
		-gate 'BenchmarkShardRefresh/unchanged:allocs/op:10' \
		-gate 'BenchmarkShardLookupBegin:allocs/op:10' \
		-gate 'BenchmarkLaneQueue/depth512:allocs/op:10' \
		-gate 'BenchmarkEncodeSmall/request:allocs/op:10'
