package main

import (
	"strings"
	"testing"
	"time"

	iathena "athena/internal/athena"
)

// The dump scenario leaves a quiescent fleet on a full and on a sharded
// directory, at three seeds: run on a minute past the end of the run —
// past the interest-table TTL and a retry window — every node passes the
// fleet invariant checker.
func TestDumpQuiescent(t *testing.T) {
	for _, shards := range []int{0, 96} {
		for seed := int64(1); seed <= 3; seed++ {
			c, err := dumpCluster(seed, 0, shards)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if shards > 0 && out.Node.ShardLookups == 0 {
				t.Errorf("shards=%d seed %d: no routed lookup", shards, seed)
			}
			if err := c.Network.RunUntil(c.Network.Now().Add(time.Minute), 50_000_000); err != nil {
				t.Fatal(err)
			}
			if v := iathena.Quiescent(c.Nodes); len(v) > 0 {
				t.Errorf("shards=%d seed %d:\n%s", shards, seed, strings.Join(v, "\n"))
			}
		}
	}
}
