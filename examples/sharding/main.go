// Sharding: sublinear directory memory with routed lookups.
//
// A 16-camera precinct runs gossip membership with the directory
// partitioned into name-prefix shards, each replicated on two nodes.
// Every node keeps full records only for the shards it owns (plus its own
// advertisement) instead of the whole fleet, so per-node directory memory
// drops to roughly shards-owned/shards of the full replica. When the
// operations node decides on a label whose shard it does not own, the
// query path sends a ShardLookup to the shard's replica set, caches the
// reply, and resolves as if the directory were fully replicated.
//
// Run with: go run ./examples/sharding
package main

import (
	"fmt"
	"log"
	"time"

	"athena"
)

// world is the ground truth the cameras' annotators read.
type world struct{}

func (world) LabelValue(string, time.Time) bool { return true }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

const cams = 16

func run() error {
	start := time.Date(2026, 1, 1, 9, 0, 0, 0, time.UTC)
	net := athena.NewSimNetwork(start)
	if err := net.EnableMembership(time.Second); err != nil {
		return err
	}
	if err := net.EnableGossip(42); err != nil {
		return err
	}
	// 8 shards, 2 replicas each: with 16 nodes, each node owns roughly
	// one shard — a sixteenth of the full directory, not all of it.
	if err := net.EnableSharding(8, 2); err != nil {
		return err
	}

	// A ring of precinct cameras: every lookup to a non-neighbor is a
	// genuine multi-hop exchange.
	const mbps = 125_000.0
	ids := make([]string, cams)
	for i := range ids {
		ids[i] = fmt.Sprintf("cam%02d", i)
	}
	for i, id := range ids {
		next := ids[(i+1)%cams]
		if err := net.AddLink(id, next, mbps, 2*time.Millisecond); err != nil {
			return err
		}
	}

	for i, id := range ids {
		// Eight street prefixes spread the namespace across shards.
		desc := &athena.SourceDescriptor{
			Name:     athena.MustParseName(fmt.Sprintf("/precinct/street%d/%s", i%8, id)),
			Size:     150_000,
			Validity: 2 * time.Minute,
			Labels:   []string{fmt.Sprintf("clear%02d", i)},
			Source:   id,
			ProbTrue: 0.5,
		}
		cfg := athena.SimNodeConfig{
			ID: id, Scheme: athena.SchemeLVF, World: world{}, Source: desc,
		}
		if err := net.AddNode(cfg); err != nil {
			return err
		}
	}

	// Let gossip converge and the first shard refresh thin the replicas.
	if err := net.Run(10 * time.Second); err != nil {
		return err
	}

	fmt.Println("--- directory footprint after sharding (full replica = 16 entries) ---")
	totalHeld := 0
	for _, id := range ids {
		node, err := net.Node(id)
		if err != nil {
			return err
		}
		info, ok := node.ShardInfo()
		if !ok {
			return fmt.Errorf("%s: sharding not enabled", id)
		}
		totalHeld += info.EntriesHeld
		if info.EntriesHeld >= cams {
			return fmt.Errorf("%s still holds a full replica (%d entries)", id, info.EntriesHeld)
		}
	}
	fmt.Printf("mean entries held per node: %.1f of %d advertised sources\n",
		float64(totalHeld)/cams, cams)

	// The operations node decides on the far side of the ring: its
	// labels' shards live elsewhere, so the query routes a lookup.
	origin, err := net.Node(ids[0])
	if err != nil {
		return err
	}
	expr := athena.ToDNF(athena.MustParseExpr("clear08"))
	if _, err := origin.QueryInit(expr, 30*time.Second); err != nil {
		return err
	}
	if err := net.Run(40 * time.Second); err != nil {
		return err
	}

	res := origin.Results()
	if len(res) == 0 {
		return fmt.Errorf("query did not finish")
	}
	lookups, served := 0, 0
	for _, id := range ids {
		node, err := net.Node(id)
		if err != nil {
			return err
		}
		st := node.Stats()
		lookups += st.ShardLookups
		served += st.ShardServed
	}
	fmt.Printf("\ndecision %v in %v; %d shard lookups routed, %d served by shard owners\n",
		res[0].Status,
		res[0].Finished.Sub(res[0].Issued).Round(100*time.Millisecond),
		lookups, served)
	if res[0].Status != athena.ResolvedTrue {
		return fmt.Errorf("expected resolved-true, got %v", res[0].Status)
	}
	return nil
}
