package athena_test

import (
	"testing"
	"time"

	"athena"
)

// TestFloodMembershipUnchangedByGossipLayer pins the exact behaviour of
// the static-directory and flood-membership configurations to the numbers
// they produced before the SWIM gossip protocol existed. The gossip layer
// rides the same wire types and call sites, so any accidental change to
// flood-mode traffic — an extra field counted in a wireSize, a reordered
// send, a sync triggered differently — shows up here as a byte delta.
func TestFloodMembershipUnchangedByGossipLayer(t *testing.T) {
	golden := []struct {
		hb         time.Duration
		churn      int
		bytes      int64
		resolved   int
		issued     int
		evictions  int
		heartbeats int
		syncs      int
	}{
		{0, 0, 67446971, 22, 24, 0, 0, 0},
		{2 * time.Second, 0, 69664571, 22, 24, 0, 462, 0},
		{2 * time.Second, 2, 65146806, 24, 24, 50, 462, 6},
	}
	for _, g := range golden {
		cfg := athena.DefaultWorkload()
		cfg.GridRows, cfg.GridCols = 5, 5
		cfg.Nodes = 14
		cfg.QueriesPerNode = 2
		cfg.Seed = 7
		cfg.FastRatio = 0.4
		s, err := athena.GenerateScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := athena.NewCluster(s, athena.ClusterConfig{
			Scheme:            athena.SchemeLVF,
			HeartbeatInterval: g.hb,
			HeartbeatMiss:     3,
			ChurnEvents:       g.churn,
			ChurnOutage:       30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := cluster.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.TotalBytes != g.bytes {
			t.Errorf("hb=%v churn=%d: TotalBytes = %d, want %d (flood-mode traffic changed)",
				g.hb, g.churn, out.TotalBytes, g.bytes)
		}
		if out.QueriesResolved != g.resolved || out.QueriesIssued != g.issued {
			t.Errorf("hb=%v churn=%d: resolved/issued = %d/%d, want %d/%d",
				g.hb, g.churn, out.QueriesResolved, out.QueriesIssued, g.resolved, g.issued)
		}
		if out.Node.Evictions != g.evictions || out.Node.HeartbeatsSent != g.heartbeats || out.Node.SyncExchanges != g.syncs {
			t.Errorf("hb=%v churn=%d: evictions/heartbeats/syncs = %d/%d/%d, want %d/%d/%d",
				g.hb, g.churn, out.Node.Evictions, out.Node.HeartbeatsSent, out.Node.SyncExchanges,
				g.evictions, g.heartbeats, g.syncs)
		}
	}
}
