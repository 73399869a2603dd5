package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"athena/internal/trust"
)

// mapLabelCache is the map-of-maps LabelCache the flat one replaced, kept
// verbatim apart from its name (and Held, which it never had, added the
// way it would have been) as the reference TestLabelCacheMatchesMapReference
// runs the flat cache against.
type mapLabelCache struct {
	records map[string]map[string]*trust.Label // label -> annotator -> record
	stats   Stats
}

func newMapLabelCache() *mapLabelCache {
	return &mapLabelCache{records: make(map[string]map[string]*trust.Label)}
}

func (c *mapLabelCache) Stats() Stats { return c.stats }

func (c *mapLabelCache) Len() int {
	n := 0
	for _, m := range c.records {
		n += len(m)
	}
	return n
}

func (c *mapLabelCache) Put(l *trust.Label) {
	byAnn := c.records[l.Name]
	if byAnn == nil {
		byAnn = make(map[string]*trust.Label)
		c.records[l.Name] = byAnn
	}
	if prev, ok := byAnn[l.Annotator]; ok && prev.Expiry().After(l.Expiry()) {
		return
	}
	byAnn[l.Annotator] = l
}

func (c *mapLabelCache) Held(label, annotator string) *trust.Label {
	return c.records[label][annotator]
}

func (c *mapLabelCache) Records(now time.Time) []trust.Label {
	var out []trust.Label
	for label, byAnn := range c.records {
		for ann, rec := range byAnn {
			if !rec.FreshAt(now) {
				delete(byAnn, ann)
				c.stats.StaleDrops++
				continue
			}
			out = append(out, *rec)
		}
		if len(byAnn) == 0 {
			delete(c.records, label)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Annotator < out[j].Annotator
	})
	return out
}

func (c *mapLabelCache) Get(label string, policy *trust.Policy, now time.Time) (*trust.Label, bool) {
	byAnn := c.records[label]
	var best *trust.Label
	for ann, rec := range byAnn {
		if !rec.FreshAt(now) {
			delete(byAnn, ann)
			c.stats.StaleDrops++
			continue
		}
		if !policy.Trusts(ann) {
			continue
		}
		if best == nil || rec.Expiry().After(best.Expiry()) ||
			rec.Expiry().Equal(best.Expiry()) && rec.Signature < best.Signature {
			best = rec
		}
	}
	if len(byAnn) == 0 {
		delete(c.records, label)
	}
	if best == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	return best, true
}

// TestLabelCacheMatchesMapReference replays random Put/Get/Records/Held
// sequences on the flat cache and on the map-of-maps one it replaced:
// every answer, Len and Stats must agree. Validities are whole seconds and
// the clock steps in half seconds, so records expire while the run goes
// on, the clock lands exactly on expiry instants, and records of different
// annotators tie on expiry (broken by signature) as often as not.
func TestLabelCacheMatchesMapReference(t *testing.T) {
	auth := trust.NewAuthority()
	annotators := []string{"ann0", "ann1", "ann2", "ann3", "ann4"}
	signers := make([]trust.Signer, len(annotators))
	for i, a := range annotators {
		signers[i] = auth.Register(a, []byte(a+"-secret"))
	}
	policies := []*trust.Policy{trust.TrustAll(), trust.TrustNone(), trust.TrustOnly("ann1", "ann3"), trust.TrustOnly("ann4")}
	labels := []string{"la", "lb", "lc", "ld"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat, ref := NewLabelCache(), newMapLabelCache()
		now := t0
		for op := 0; op < 600; op++ {
			label := labels[rng.Intn(len(labels))]
			switch k := rng.Intn(10); {
			case k < 4:
				rec := &trust.Label{
					Name:     label,
					Value:    rng.Intn(2) == 0,
					Computed: now.Add(-time.Duration(rng.Intn(3)) * time.Second),
					Validity: time.Duration(rng.Intn(6)) * time.Second,
				}
				signers[rng.Intn(len(signers))].Sign(rec)
				flat.Put(rec)
				ref.Put(rec)
			case k < 7:
				p := policies[rng.Intn(len(policies))]
				got, gok := flat.Get(label, p, now)
				want, wok := ref.Get(label, p, now)
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: Get(%s) = %v, %v; reference %v, %v", seed, op, label, got, gok, want, wok)
				}
			case k < 8:
				if got, want := flat.Records(now), ref.Records(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: Records =\n%v\nreference\n%v", seed, op, got, want)
				}
			case k < 9:
				ann := annotators[rng.Intn(len(annotators))]
				if got, want := flat.Held(label, ann), ref.Held(label, ann); got != want {
					t.Fatalf("seed %d op %d: Held(%s, %s) = %v, reference %v", seed, op, label, ann, got, want)
				}
			default:
				now = now.Add(500 * time.Millisecond)
			}
			if flat.Len() != ref.Len() || flat.Stats() != ref.Stats() {
				t.Fatalf("seed %d op %d: Len %d, Stats %+v; reference %d, %+v", seed, op, flat.Len(), flat.Stats(), ref.Len(), ref.Stats())
			}
		}
	}
}

// A node puts, looks up and reads a (label, annotator) it already holds on
// every label share and delivery: none of the three may allocate. The
// flat cache reuses the label's slot; the map-of-maps cache made a new
// annotator map each time Get had pruned a label empty.
func TestLabelCacheHeldDoesNotAllocate(t *testing.T) {
	auth := trust.NewAuthority()
	c := NewLabelCache()
	recs := make([]*trust.Label, 3)
	for i := range recs {
		recs[i] = makeLabel(t, auth, fmt.Sprintf("ann%d", i), "viableA", true, time.Minute)
		c.Put(recs[i])
	}
	policy := trust.TrustAll()
	now := t0.Add(time.Second)
	if n := testing.AllocsPerRun(200, func() {
		c.Put(recs[1])
		if c.Held("viableA", "ann1") != recs[1] {
			t.Fatal("Held lost the record")
		}
		if _, ok := c.Get("viableA", policy, now); !ok {
			t.Fatal("Get missed")
		}
	}); n != 0 {
		t.Errorf("Put/Held/Get on a held record: %v allocs, want 0", n)
	}
	// Pruned empty and put again, a label reuses its slice.
	late := t0.Add(time.Hour)
	if n := testing.AllocsPerRun(200, func() {
		c.Get("viableA", policy, late)
		for _, r := range recs {
			c.Put(r)
		}
	}); n != 0 {
		t.Errorf("a label pruned empty and put again: %v allocs, want 0", n)
	}
}

// Reset drops every record and keeps the counters.
func TestLabelCacheReset(t *testing.T) {
	auth := trust.NewAuthority()
	c := NewLabelCache()
	c.Put(makeLabel(t, auth, "ann1", "x", true, time.Minute))
	c.Get("x", trust.TrustAll(), t0)
	c.Reset()
	if c.Len() != 0 || c.Held("x", "ann1") != nil {
		t.Errorf("Reset kept records: Len %d", c.Len())
	}
	if c.Stats().Hits != 1 {
		t.Errorf("Reset cleared the counters: %+v", c.Stats())
	}
}
