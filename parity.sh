#!/bin/sh
# The no-move proof (`make parity BASE=<rev>`): build athena-sim at BASE
# and at the working tree and compare, byte for byte, everything a change
# that claims to move no frame, decision or dump has to leave alone —
# `-fig dump` on the lane-per-node kernel at 1 and 8 workers and at
# GOMAXPROCS=1, with batching off and on; the quick figures that between
# them run the flood, SWIM, sharded and batched paths, plus prefetch on
# (a2: announce and push), noisy sensors (a5: corrSource's retry timer) and
# lossy links (a6: the recovery timers); and the n=512 gossip+sharding
# smoke minus its wall-clock line. One `same`/`DIFFERS`
# line per cell; exits non-zero on any difference. A1's partial-trust rows
# differ between two runs of one binary (ROADMAP item 1) and are not here.
set -eu

base="${1:?usage: $0 <base-rev>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base" ./cmd/athena-sim)
go build -o "$tmp/tree" ./cmd/athena-sim

fail=0
# cell NAME ENV ARGS...: run both binaries as `env ENV athena-sim ARGS`.
cell() {
	name="$1" env="$2"
	shift 2
	for side in base tree; do
		# stdout only: stderr carries athena-sim's elapsed-time line.
		env $env "$tmp/$side" "$@" >"$tmp/$side.out" 2>/dev/null || echo "exit status $?" >>"$tmp/$side.out"
		sed -i '/"wallSeconds"/d' "$tmp/$side.out"
	done
	# An unknown -fig prints nothing and exits 0; two empty outputs prove
	# nothing.
	if [ -s "$tmp/base.out" ] && cmp -s "$tmp/base.out" "$tmp/tree.out"; then
		echo "same     $name"
	else
		echo "DIFFERS  $name"
		fail=1
	fi
}

for window in 0 10ms; do
	cell "dump workers=1 batch-window=$window" "" -fig dump -workers 1 -batch-window "$window"
	cell "dump workers=8 batch-window=$window" "" -fig dump -workers 8 -batch-window "$window"
	cell "dump GOMAXPROCS=1 workers=8 batch-window=$window" GOMAXPROCS=1 -fig dump -workers 8 -batch-window "$window"
done
for fig in 2 3 a2 a5 a6 a7 a8 a9 a11; do
	cell "fig $fig -quick" "" -fig "$fig" -quick
done
cell "smoke -quick (minus wallSeconds)" "" -fig smoke -quick -workers 2
exit "$fail"
