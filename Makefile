GO ?= go

.PHONY: all build vet lint test race fmt ci ci-short bench loc parity figures clean

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
# decision engine's construct-ask-set loop on a nine-label query, the
# membership control-plane benchmark (flood vs gossip bytes per node per
# interval at n=64), the directory-memory benchmark (entries held per
# node, sharded vs full replica), the simulation-kernel benchmark
# (n=512 synthetic workload at W=1 and W=NumCPU), the data-plane
# batching benchmark (A11 incast at n=64, coalescing off/on), the
# node's object delivery with 0 and 2000 finished queries behind it and
# its does-this-query-reference-that-label check, a 30-label source
# selection on a full replica and on a sharded node, and the shard
# router's refresh (same view, changed view) and routed-lookup start
# (internal/athena), the event queue at depths 1, 512 and 8192
# (internal/simclock), the wire codec on three small frames and a 500 KB
# one, each way (internal/wire), the prefetch ablation (frames per
# decision with the announce flood off and on), and one label signature
# and verification (internal/trust), parsed into machine-readable JSON.
# CI archives the file per commit; regressions are judged against the
# committed baseline.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkScheme|BenchmarkDecisionEngine|BenchmarkAblationPrefetch|BenchmarkMembershipControlPlane|BenchmarkDirectoryMemory|BenchmarkSimKernel|BenchmarkBatchedFetch|BenchmarkDeliverObjectHistory|BenchmarkQueryReferences|BenchmarkSelectSources|BenchmarkShardRefresh|BenchmarkShardLookupBegin|BenchmarkLaneQueue|BenchmarkEncode|BenchmarkDecode|BenchmarkSign|BenchmarkVerify' -benchmem -benchtime 3x . ./internal/athena ./internal/simclock ./internal/wire ./internal/trust \
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
# decision and dump is where it was: athena-sim built at BASE and at the
# tree, 16 outputs compared byte for byte (parity.sh lists them), one
# same/DIFFERS line each, non-zero exit on any difference. ~1 min.
parity:
	./parity.sh $(BASE)

# figures reproduces the paper's evaluation tables (quick variants).
figures:
	$(GO) run ./cmd/athena-sim -fig all -quick

clean:
	$(GO) clean ./...
