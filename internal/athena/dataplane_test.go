package athena

import (
	"slices"
	"testing"
	"time"

	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/workload"
)

// TestDataLabelsAreReadOnlyViews: a data message carries its object's
// labels, and the object a receiver makes of it carries the message's,
// with no copy between (DESIGN §3.6). That is only sound while nobody
// writes an object's labels once it is made. The first part pins the
// sharing; the second runs Sec. VII fleets, with and without batching,
// records every data message's labels as delivered, and checks at the end
// of the run that not one of them has been written since.
func TestDataLabelsAreReadOnlyViews(t *testing.T) {
	obj := &object.Object{
		ID:       object.ID{Name: names.MustParse("/cam/x"), Version: 1},
		Size:     100,
		Validity: time.Minute,
		Labels:   []string{"la", "lb"},
		Source:   "src",
	}
	msg := dataMsg(obj, "origin", "q")
	got := dataToObject(msg)
	if &msg.Labels[0] != &obj.Labels[0] || &got.Labels[0] != &msg.Labels[0] {
		t.Fatal("a data message or the object made of it copies the labels")
	}

	type delivered struct{ labels, then []string }
	for _, cfg := range []ClusterConfig{
		{Scheme: SchemeLVFL},
		{Scheme: SchemeCMP},
		{Scheme: SchemeLVF, CoalesceWindow: 10 * time.Millisecond},
	} {
		wcfg := workload.DefaultConfig()
		wcfg.GridRows, wcfg.GridCols, wcfg.Nodes = 5, 5, 14
		wcfg.QueriesPerNode = 2
		wcfg.Seed = 3
		s, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var seen []delivered
		record := func(d *ObjectData) {
			seen = append(seen, delivered{d.Labels, slices.Clone(d.Labels)})
		}
		for id, node := range c.Nodes {
			node := node
			err := c.Network.SetHandler(id, func(from string, size int64, payload any) {
				switch m := payload.(type) {
				case *ObjectData:
					record(m)
				case *DataBatch:
					for i := range m.Items {
						record(&m.Items[i])
					}
				}
				node.handleMessage(from, size, payload)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if len(seen) == 0 {
			t.Fatalf("%v: no data message delivered", cfg.Scheme)
		}
		for i, d := range seen {
			if !slices.Equal(d.labels, d.then) {
				t.Fatalf("%v: data message %d's labels were %v when delivered and are %v now", cfg.Scheme, i, d.then, d.labels)
			}
		}
	}
}
