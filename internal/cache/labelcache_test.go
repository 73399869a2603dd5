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

// sliceLabelCache is the map-of-slices LabelCache that gave each new label
// a slice of its own, kept verbatim apart from its name as the reference
// TestLabelCacheMatchesSliceReference runs the slab-backed cache against.
type sliceLabelCache struct {
	records map[string][]*trust.Label
	stats   Stats
}

func newSliceLabelCache() *sliceLabelCache {
	return &sliceLabelCache{records: make(map[string][]*trust.Label)}
}

func (c *sliceLabelCache) Stats() Stats { return c.stats }

func (c *sliceLabelCache) Len() int {
	n := 0
	for _, recs := range c.records {
		n += len(recs)
	}
	return n
}

func (c *sliceLabelCache) Reset() { clear(c.records) }

func (c *sliceLabelCache) Put(l *trust.Label) {
	recs := c.records[l.Name]
	for i, prev := range recs {
		if prev.Annotator == l.Annotator {
			if !prev.Expiry().After(l.Expiry()) {
				recs[i] = l
			}
			return
		}
	}
	c.records[l.Name] = append(recs, l)
}

func (c *sliceLabelCache) Held(label, annotator string) *trust.Label {
	for _, rec := range c.records[label] {
		if rec.Annotator == annotator {
			return rec
		}
	}
	return nil
}

func (c *sliceLabelCache) All() []*trust.Label {
	var out []*trust.Label
	for _, recs := range c.records {
		out = append(out, recs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Annotator < out[j].Annotator
	})
	return out
}

func (c *sliceLabelCache) prune(label string, recs []*trust.Label, now time.Time) []*trust.Label {
	kept := recs[:0]
	for _, rec := range recs {
		if rec.FreshAt(now) {
			kept = append(kept, rec)
		} else {
			c.stats.StaleDrops++
		}
	}
	if len(kept) < len(recs) {
		clear(recs[len(kept):])
		c.records[label] = kept
	}
	return kept
}

func (c *sliceLabelCache) Get(label string, policy *trust.Policy, now time.Time) (*trust.Label, bool) {
	var best *trust.Label
	for _, rec := range c.prune(label, c.records[label], now) {
		if !policy.Trusts(rec.Annotator) {
			continue
		}
		if best == nil || rec.Expiry().After(best.Expiry()) ||
			rec.Expiry().Equal(best.Expiry()) && rec.Signature < best.Signature {
			best = rec
		}
	}
	if best == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	return best, true
}

// TestLabelCacheMatchesSliceReference replays random Put/Get/Held/All/
// Reset sequences on the slab-backed cache and on the map of
// slices it replaced, over enough labels that slabs fill and roll over
// and with up to five annotators a label, so full labels move to larger
// slots: every answer, Len and Stats must agree.
func TestLabelCacheMatchesSliceReference(t *testing.T) {
	auth := trust.NewAuthority()
	annotators := []string{"ann0", "ann1", "ann2", "ann3", "ann4"}
	signers := make([]trust.Signer, len(annotators))
	for i, a := range annotators {
		signers[i] = auth.Register(a, []byte(a+"-secret"))
	}
	policies := []*trust.Policy{trust.TrustAll(), trust.TrustOnly("ann1", "ann3"), trust.TrustOnly("ann4")}
	labels := make([]string, 3*labelSlab)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%03d", i)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slab, ref := NewLabelCache(), newSliceLabelCache()
		now := t0
		for op := 0; op < 3000; op++ {
			label := labels[rng.Intn(len(labels))]
			switch k := rng.Intn(200); {
			case k < 100:
				rec := &trust.Label{
					Name:     label,
					Value:    rng.Intn(2) == 0,
					Computed: now.Add(-time.Duration(rng.Intn(3)) * time.Second),
					Validity: time.Duration(rng.Intn(40)) * time.Second,
				}
				signers[rng.Intn(len(signers))].Sign(rec)
				slab.Put(rec)
				ref.Put(rec)
			case k < 150:
				p := policies[rng.Intn(len(policies))]
				got, gok := slab.Get(label, p, now)
				want, wok := ref.Get(label, p, now)
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: Get(%s) = %v, %v; reference %v, %v", seed, op, label, got, gok, want, wok)
				}
			case k < 160:
				ann := annotators[rng.Intn(len(annotators))]
				if got, want := slab.Held(label, ann), ref.Held(label, ann); got != want {
					t.Fatalf("seed %d op %d: Held(%s, %s) = %v, reference %v", seed, op, label, ann, got, want)
				}
			case k < 166:
				if got, want := slab.All(), ref.All(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: All differs from the reference", seed, op)
				}
			case k < 167:
				slab.Reset()
				ref.Reset()
			default:
				now = now.Add(500 * time.Millisecond)
			}
			if slab.Len() != ref.Len() || slab.Stats() != ref.Stats() {
				t.Fatalf("seed %d op %d: Len %d, Stats %+v; reference %d, %+v", seed, op, slab.Len(), slab.Stats(), ref.Len(), ref.Stats())
			}
		}
	}
}

// Labels' records share slabs: after a Reset (which keeps the map's
// buckets), two slabs' worth of new labels cost two allocations, where a
// slice per label cost one each; and sixteen labels that each gain four
// annotators cost a few slabs, not three slices a label.
func TestLabelCacheNewLabelsShareASlab(t *testing.T) {
	auth := trust.NewAuthority()
	signer := auth.Register("ann", []byte("ann-secret"))
	recs := make([]*trust.Label, 2*labelSlab)
	for i := range recs {
		recs[i] = &trust.Label{Name: fmt.Sprintf("l%03d", i), Computed: t0, Validity: time.Minute}
		signer.Sign(recs[i])
	}
	c := NewLabelCache()
	if n := testing.AllocsPerRun(50, func() {
		c.Reset()
		for _, r := range recs {
			c.Put(r)
		}
	}); n != 2 {
		t.Errorf("%d new labels: %v allocs, want 2 (one per slab)", len(recs), n)
	}
	if c.Len() != len(recs) {
		t.Errorf("Len %d, want %d", c.Len(), len(recs))
	}

	var shared []*trust.Label
	for i := 0; i < 4; i++ {
		s := auth.Register(fmt.Sprintf("ann%d", i), []byte("secret"))
		for j := 0; j < 16; j++ {
			r := &trust.Label{Name: fmt.Sprintf("l%03d", j), Computed: t0, Validity: time.Minute}
			s.Sign(r)
			shared = append(shared, r)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		c.Reset()
		for _, r := range shared {
			c.Put(r)
		}
	}); n > 3 {
		t.Errorf("16 labels of 4 annotators: %v allocs, want at most 3 (slabs)", n)
	}
	if c.Len() != len(shared) {
		t.Errorf("Len %d, want %d", c.Len(), len(shared))
	}
}

// TestLabelCacheMatchesMapReference replays random Put/Get/Held
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
			case k < 8:
				p := policies[rng.Intn(len(policies))]
				got, gok := flat.Get(label, p, now)
				want, wok := ref.Get(label, p, now)
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: Get(%s) = %v, %v; reference %v, %v", seed, op, label, got, gok, want, wok)
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
