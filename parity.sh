#!/bin/sh
# The no-move proof (`make parity BASE=<rev>`): build athena-sim at BASE
# and at the working tree and compare, byte for byte, everything a change
# that claims to move no frame, decision or dump has to leave alone —
# `-fig dump` (gossip and churn), also at GOMAXPROCS=1, with
# batching off and on, on a full replica and on 96 directory shards (the
# only recorded output that issues sharded queries); the quick figures that between
# them run the flood, SWIM, sharded and batched paths, plus noisy sensors
# (a5: corrSource's retry timer) and lossy links (a6: the recovery timers); a4, the only figure that runs the
# infomax triage; and the n=512 gossip+sharding
# smoke minus its wall-clock line; a3, whose rows share one generated
# scenario per seed (a sweep's scenarios come from one generation pass);
# and the a10 kernel-scale rig's config, events and delivered columns (its
# wall and events/sec columns are the host's); Figure 2 as CSV, whose
# ratio-min/max, latency and point-order columns no table prints. Then
# each of the examples under examples/, the public testbed, built at BASE
# and at the tree: an example BASE lacks has no binary there, and its cell
# differs.
# A `"workers"` line is stripped the same way: builds that still had the
# kernel's worker pool print one (a -workers flag that never changed a
# result), later builds do not. Every run is on the kernel's one lane, in
# one (time, schedule sequence) order; a BASE that still ran dump, the
# chaos kernel fleet, a8's scale row, a10, a11 and smoke a lane per node
# differs on the dump and chaos cells (same-instant order moved there).
# A1 is the label-sharing ablation under partial trust: the cell that
# moves when a node picks a different cached label record. The misses
# table (-fig misses) is the expired queries' post-mortem, sorted by cause;
# the chaos rows (-fig chaos) are fleets under seeded fault schedules; the
# sweep rows (-fig sweep) are decisions compared across same-instant orders.
# The codec cell is the dump with every frame through the wire codec
# (-codec), which must equal the plain dump byte for byte.
# One `same`/`DIFFERS` line per cell; exits non-zero on any difference.
set -eu

base="${1:?usage: $0 <base-rev>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
mkdir "$tmp/base" "$tmp/tree"
(cd "$tmp/src" && go build -o "$tmp/base/" ./cmd/athena-sim ./examples/...)
go build -o "$tmp/tree/" ./cmd/athena-sim ./examples/...

fail=0
# cols > 0 makes cell compare only the first cols fields of each line.
cols=0
# bin is the program cell runs, built on both sides.
bin=athena-sim
# cell NAME ENV ARGS...: run both sides' bin as `env ENV bin ARGS`.
cell() {
	name="$1" env="$2"
	shift 2
	for side in base tree; do
		# stdout only: stderr carries athena-sim's elapsed-time line.
		env $env "$tmp/$side/$bin" "$@" >"$tmp/$side.out" 2>/dev/null || echo "exit status $?" >>"$tmp/$side.out"
		sed -i '/"wallSeconds"/d; /"workers"/d' "$tmp/$side.out"
		if [ "$cols" -gt 0 ]; then
			awk -v n="$cols" '{ s = $1; for (i = 2; i <= n && i <= NF; i++) s = s " " $i; print s }' \
				"$tmp/$side.out" >"$tmp/$side.cut"
			mv "$tmp/$side.cut" "$tmp/$side.out"
		fi
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
	cell "dump batch-window=$window" "" -fig dump -batch-window "$window"
	cell "dump GOMAXPROCS=1 batch-window=$window" GOMAXPROCS=1 -fig dump -batch-window "$window"
	# -shards is newer than the rest: a BASE without it fails these cells.
	cell "dump shards=96 batch-window=$window" "" -fig dump -shards 96 -batch-window "$window"
	cell "dump shards=96 GOMAXPROCS=1 batch-window=$window" GOMAXPROCS=1 -fig dump -shards 96 -batch-window "$window"
done
# -codec is newer (ROADMAP item 24): a BASE without it fails this cell.
cell "dump -codec shards=96 batch-window=10ms (new: a BASE before it differs)" "" -fig dump -codec -shards 96 -batch-window 10ms
for fig in 2 3 a1 a3 a4 a5 a6 a7 a8 a9 a11; do
	cell "fig $fig -quick" "" -fig "$fig" -quick
done
# The CSV is the only output with the ratio min/max and latency columns,
# and with the points in the order the sweep returns them.
cell "fig 2 -csv -schemes lvfl,cmp -quick" "" -fig 2 -csv -schemes lvfl,cmp -quick
# -fig misses is newer than the rest: a BASE without it prints nothing and
# fails this cell.
cell "fig misses -quick (new: a BASE before it differs)" "" -fig misses -quick
# -fig chaos is newer still (ROADMAP item 1): two seeds of fault schedules
# on the four chaos fleets, the only cell that runs partial trust under
# faults. A BASE that still ran a fifth, prefetch-on fleet (wire version 3
# and before) differs in this cell alone.
cell "fig chaos -reps 2 (new: a BASE before it differs)" "" -fig chaos -reps 2
# -fig sweep is the order-independence sweep (ROADMAP item 1): one seed of
# the kernel_fleet and dump fleets, each in four same-instant orders beside
# the schedule order. A BASE before it prints nothing there and differs.
cell "fig sweep -reps 1 (new: a BASE before it differs)" "" -fig sweep -reps 1
cell "smoke -quick (minus wallSeconds)" "" -fig smoke -quick
cols=3
cell "fig a10 -quick (config, events, delivered)" "" -fig a10 -quick
cols=0
for dir in examples/*/; do
	bin="$(basename "$dir")"
	cell "example $bin" ""
done
exit "$fail"
