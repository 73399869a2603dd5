package experiment

// Ablation A9: directory sharding at scale. The full simulator cannot
// hold 10^5 advertising sources across a 512-node fleet in a test budget,
// so this rig measures the two quantities the sharding refactor exists to
// bound — directory entries held per node and anti-entropy bytes per
// exchange — structurally: real rendezvous shard assignment over a real
// membership view, the directory's label→shard rule, and real wire-message
// sizes, with the advertisement population synthesized instead of
// simulated. Query-path equivalence with the full replica is pinned
// separately by the cluster tests in internal/athena.

import (
	"fmt"
	"slices"
	"strings"

	"athena/internal/athena"
	"athena/internal/shard"
)

// ShardScaleRow is one (sources × fleet) cell of the A9 table, comparing
// a sharded directory against the full-replica baseline.
type ShardScaleRow struct {
	// Label names the configuration (e.g. "S=100000 n=512").
	Label string
	// Sources is the advertised-source population; Nodes the fleet size;
	// Shards and RF the partition and replication configuration.
	Sources, Nodes, Shards, RF int
	// EntriesPerNode is the mean directory payload entries a node
	// retains. The full-replica baseline is Sources (every node holds
	// every record).
	EntriesPerNode float64
	// MemRatio is EntriesPerNode / Sources: the fraction of the full
	// replica a sharded node actually stores.
	MemRatio float64
	// SyncBytes is the mean wire cost (request + response) of one
	// steady-state anti-entropy exchange under shard scoping;
	// FullSyncBytes is the same exchange with a whole-directory seq
	// vector. SyncRatio is their quotient.
	SyncBytes     float64
	FullSyncBytes float64
	SyncRatio     float64
}

// shardScaleLabels is the label-vocabulary size: IoT deployments reuse a
// bounded predicate vocabulary ("intruder", "smoke", ...) across many
// streams, so labels are drawn from a fixed pool regardless of scale.
const shardScaleLabels = 256

// RunShardScale measures per-node directory retention and scoped
// anti-entropy cost for a fleet of n nodes sharing `sources` advertised
// streams over `shards` label shards at replication factor rf. Every
// stream carries one label from the fixed vocabulary and is held by the
// replicas of that label's shard — the scope rule the sharded directory
// runs (ShardRouter.inShards). Deterministic: rendezvous assignment and
// FNV partitioning have no random inputs.
func RunShardScale(n, sources, shards, rf int) (ShardScaleRow, error) {
	if n <= 0 || sources <= 0 || shards <= 0 || rf <= 0 {
		return ShardScaleRow{}, fmt.Errorf("shardscale: bad parameters n=%d S=%d shards=%d rf=%d", n, sources, shards, rf)
	}
	view := make([]string, n)
	for i := range view {
		view[i] = fmt.Sprintf("n%03d", i)
	}
	smap := shard.New(shards)

	// Each source falls in its label's shard (a label routes to one shard
	// whose owners hold every covering advert). Count the population by
	// shard so the per-node retention count is a sum over shards, not
	// sources.
	count := make([]int, shards)
	for i := 0; i < sources; i++ {
		count[smap.OfKey(fmt.Sprintf("l%03d", i%shardScaleLabels))]++
	}

	place := smap.Placement(view, rf)
	var totalEntries int64
	var totalSync int64
	for i, id := range view {
		// One steady-state exchange with the next node in the view:
		// scope = the shards both replicate, seq vector = the sources
		// inside that scope, no delta records (replicas converged).
		peer := view[(i+1)%n]
		var shared []uint32
		scope := 0
		for _, s := range place.Owned(id) {
			totalEntries += int64(count[s])
			if slices.Contains(place.Replicas(s), peer) {
				shared = append(shared, uint32(s))
				scope += count[s]
			}
		}
		seqs := make(map[string]uint64, scope)
		for k := 0; k < scope; k++ {
			seqs[fmt.Sprintf("s%d", k)] = 1
		}
		req := athena.SyncRequest{From: id, To: peer, Shards: shared, Seqs: seqs}
		resp := athena.SyncResponse{From: peer, To: id, Shards: shared, Seqs: seqs}
		totalSync += req.WireSize() + resp.WireSize()
	}

	// Full-replica baseline: the same exchange carries a seq vector over
	// the entire source population, both ways.
	fullSeqs := make(map[string]uint64, sources)
	for k := 0; k < sources; k++ {
		fullSeqs[fmt.Sprintf("s%d", k)] = 1
	}
	fullReq := athena.SyncRequest{From: "a", To: "b", Seqs: fullSeqs}
	fullResp := athena.SyncResponse{From: "b", To: "a", Seqs: fullSeqs}
	fullSync := float64(fullReq.WireSize() + fullResp.WireSize())

	row := ShardScaleRow{
		Label:          fmt.Sprintf("S=%d n=%d", sources, n),
		Sources:        sources,
		Nodes:          n,
		Shards:         shards,
		RF:             rf,
		EntriesPerNode: float64(totalEntries) / float64(n),
		SyncBytes:      float64(totalSync) / float64(n),
		FullSyncBytes:  fullSync,
	}
	row.MemRatio = row.EntriesPerNode / float64(sources)
	row.SyncRatio = row.SyncBytes / fullSync
	return row, nil
}

// AblationShardScale (A9) sweeps the source population 10^3 → 10^5
// against fleet sizes {64, 256, 512} at fixed rf=3, with the shard count
// tracking the fleet (4 shards per node keeps rendezvous assignment
// balanced without inflating per-exchange scope headers). Memory per node
// and sync bytes both collapse from the full replica's Θ(S) to Θ(S·rf/n):
// grow the fleet with the deployment — the paradigm's operating regime —
// and per-node cost rises sublinearly in total sources while the
// full-replica baseline rises linearly. A nil sizes slice runs the full
// sweep; tests pass a trimmed one.
func AblationShardScale(sources []int, fleets []int) ([]ShardScaleRow, error) {
	if len(sources) == 0 {
		sources = []int{1_000, 10_000, 100_000}
	}
	if len(fleets) == 0 {
		fleets = []int{64, 256, 512}
	}
	const rf = 3
	var rows []ShardScaleRow
	for _, s := range sources {
		for _, n := range fleets {
			row, err := RunShardScale(n, s, 4*n, rf)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderShardScale prints the A9 table.
func RenderShardScale(rows []ShardScaleRow) string {
	var b strings.Builder
	b.WriteString("Ablation A9: directory sharding — per-node memory and sync bytes vs full replica\n")
	fmt.Fprintf(&b, "%-18s%10s%12s%10s%14s%16s%10s\n",
		"config", "entries", "full", "mem", "sync B/exch", "full B/exch", "sync")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s%10.0f%12d%9.1f%%%14.0f%16.0f%9.1f%%\n",
			r.Label, r.EntriesPerNode, r.Sources, 100*r.MemRatio,
			r.SyncBytes, r.FullSyncBytes, 100*r.SyncRatio)
	}
	return b.String()
}
