GO ?= go

.PHONY: all build vet lint test race fmt ci ci-short bench loc parity chaos sweep figures clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs athena-lint, the repo's own static-analysis gate: determinism
# (no wall clock / global rand / map-order output in sim-reachable code),
# lane isolation and float-fold order in kernel-handler-reachable code,
# wire-protocol exhaustiveness, lock discipline (including the inferred
# acquisition-order graph), metrics nil-safety, goroutine lifecycle, and
# dropped transport errors. `go run ./cmd/athena-lint -list` describes the
# checks; deliberate exceptions carry //lint:allow <check> <reason>.
lint:
	$(GO) run ./cmd/athena-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -w .

# ci is the gate run before every merge: formatting, compile, static
# checks, the full test suite under the race detector, and the aggregate
# coverage floor. ci-short is the inner-loop variant (race suite with
# -short, skipping the long simulation sweeps and the coverage gate).
# Both are the same script so the gates can't drift apart.
ci:
	./ci.sh

ci-short:
	./ci.sh -short

# bench refreshes the committed benchmark baseline: the BenchmarkScheme
# family (end-to-end scheme runs reporting ns/op, resolution and MB), the
# decision engine's construct-ask-set loop on a nine-label query, a node's
# query planning (internal/athena), the
# membership control-plane benchmark (flood vs gossip bytes per node per
# interval at n=64), the directory-memory benchmark (entries held per
# node, sharded vs full replica; run without -benchmem, because its timed
# region is the same model for both and its B/op said nothing), the
# simulation-kernel benchmark
# (n=512 synthetic workload, a lane per node), one run of the
# kernel_fleet configuration (frames per decision), the data-plane
# batching benchmark (A11 incast at n=64, coalescing off/on), the
# node's object delivery with 0 and 2000 finished queries behind it and
# its does-this-query-reference-that-label check, a 30-label source
# selection on a full replica and on two sharded nodes, a scoped directory
# delta for a caught-up peer, and the shard
# router's refresh (same view, changed view), routed-lookup start, one
# query's eight lookup replies landing, a shard owner serving one lookup
# and one SWIM probe round on full piggyback buffers (internal/athena), the event queue
# at depths 1, 512 and 8192 (internal/simclock), the wire codec on three small frames and a 500 KB
# one, each way, the 500 KB encode both whole and as the head the TCP
# transport sends (internal/wire), one label signature and verification
# (internal/trust), and one scenario generated at the Sec. VII shape and
# at the 81-node grid (internal/workload), and 1 MB
# padded frames received over one loopback connection with the heap it
# holds after them (internal/transport), the heap a closed socket pair
# of nodes still holds per decision it made, a share of label records
# a node already holds, and a Sec. VII cmp query's batch pump
# (internal/athena), and a warm content store's put of a name it holds
# (internal/cache), parsed into
# machine-readable JSON.
# CI archives the file per commit; regressions are judged against the
# committed baseline.
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkScheme|BenchmarkKernelFleet|BenchmarkDecisionEngine|BenchmarkPlanFor|BenchmarkMembershipControlPlane|BenchmarkSimKernel|BenchmarkBatchedFetch|BenchmarkDeliverObjectHistory|BenchmarkQueryReferences|BenchmarkSelectSources|BenchmarkDirectoryDelta|BenchmarkShardRefresh|BenchmarkShardLookupBegin|BenchmarkLookupReplies|BenchmarkShardLookupServe|BenchmarkSwimProbeRound|BenchmarkLaneQueue|BenchmarkEncode|BenchmarkDecode|BenchmarkSign|BenchmarkVerify|BenchmarkGenerate|BenchmarkTCPReceivePadded|BenchmarkTCPClosedPairHeld|BenchmarkLabelShare|BenchmarkPumpBatch|BenchmarkStorePut' -benchmem -benchtime 3x . ./internal/athena ./internal/simclock ./internal/wire ./internal/trust ./internal/workload ./internal/transport ./internal/cache && \
	  $(GO) test -run '^$$' -bench 'BenchmarkDirectoryMemory' -benchtime 3x . ; } \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_core.json

# loc prints the net Go lines of a change, the figure ROADMAP has every
# PR report in CHANGES.md: the tree (new files count once `git add`ed)
# against BASE — HEAD before the commit, HEAD~1 after — split into
# non-test and test lines, with bench/ and testdata/ listed apart.
# DIR=internal/athena restricts the count to that directory.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '$(if $(DIR),$(DIR)/)*.go' | awk ' \
		{ k = "non-test"; \
		  if ($$3 ~ /(^|\/)testdata\//) k = "testdata/"; \
		  else if ($$3 ~ /^bench\//) k = "bench/"; \
		  else if ($$3 ~ /_test\.go$$/) k = "test"; \
		  add[k] += $$1; del[k] += $$2 } \
		END { n = split("non-test test bench/ testdata/", ks, " "); \
		  for (i = 1; i <= n; i++) printf "%-9s +%d -%d net %+d\n", ks[i], add[ks[i]], del[ks[i]], add[ks[i]] - del[ks[i]] }'

# parity is the no-move proof for a change that claims every frame,
# decision and dump is where it was: athena-sim and the eight examples
# built at BASE and at the tree, their outputs compared byte for byte, one
# same/DIFFERS line per cell parity.sh lists, non-zero exit on any
# difference. ~1 min.
parity:
	./parity.sh $(BASE)

# chaos runs the fault-schedule draw (ROADMAP item 1) on more seeds than
# ci.sh's budgeted step: 200 seeds from 1, each on the four chaos fleets,
# every fleet invariant checked; a violation prints its shortest failing
# schedule prefix and a one-line replay command. ~5 min.
chaos:
	$(GO) run ./cmd/athena-sim -fig chaos -reps 200 -seed 1

# sweep runs the order-independence sweep (ROADMAP item 1) on its full
# set: scenario seeds 1-20 of the kernel_fleet configuration and of the
# dump's four, each in four same-instant orders beside the schedule order;
# every decision compared, every difference classed, every run audited.
# Fails on an unexplained difference or a violation. ~3 min.
sweep:
	$(GO) run ./cmd/athena-sim -fig sweep -reps 20 -seed 1

# figures reproduces the paper's evaluation tables (quick variants).
figures:
	$(GO) run ./cmd/athena-sim -fig all -quick

clean:
	$(GO) clean ./...
