package athena

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"athena/internal/cover"
	"athena/internal/object"
)

// The directory's locked readers as they were before the view, kept
// verbatim but for taking the directory as an argument and finding a
// label's sources with refCovering: the reference the view, the pick and
// the cover are checked against.

// refCovering lists the source nodes covering a label, sorted: a scan of
// every record for the present ones whose payload is held here and whose
// descriptor lists the label, sharing no index with the view it checks.
// Callers hold d.mu.
func refCovering(d *Directory, label string) []string {
	var out []string
	for src, r := range d.records {
		if r.present && !r.thin && slices.Contains(r.desc.Labels, label) {
			out = append(out, src)
		}
	}
	slices.Sort(out)
	return out
}

// refSourcesFor lists the source nodes covering a label, sorted.
func refSourcesFor(d *Directory, label string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return refCovering(d, label)
}

// refAppendCovering appends the descriptors of the present sources
// covering label to out, in source order.
func refAppendCovering(d *Directory, out []object.Descriptor, label string) []object.Descriptor {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, s := range refCovering(d, label) {
		out = append(out, d.records[s].desc)
	}
	return out
}

// refAdvertsFor returns full advertisements for the present sources
// covering a label, sorted by source.
func refAdvertsFor(d *Directory, label string) []Advertisement {
	d.mu.RLock()
	defer d.mu.RUnlock()
	srcs := refCovering(d, label)
	out := make([]Advertisement, 0, len(srcs))
	for _, s := range srcs {
		r := d.records[s]
		out = append(out, advertisementOf(r.desc, r.seq))
	}
	return out
}

// refDescriptor returns a present source node's advertised stream; thin
// records read as absent.
func refDescriptor(d *Directory, source string) (object.Descriptor, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[source]
	if !ok || !r.present || r.thin {
		return object.Descriptor{}, false
	}
	return r.desc, true
}

// refSelectSources is the full replica's cover under the directory lock.
func refSelectSources(d *Directory, labels []string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	coverable := make([]string, 0, len(labels))
	var ids []string
	for _, l := range labels {
		srcs := refCovering(d, l)
		if len(srcs) == 0 {
			continue
		}
		coverable = append(coverable, l)
		ids = addDistinct(ids, srcs)
	}
	pool := make([]cover.Source, len(ids))
	for i, s := range ids {
		desc := d.records[s].desc
		pool[i] = cover.Source{ID: s, Cost: float64(desc.Size), Covers: desc.Labels}
	}
	return coverSources(coverable, pool)
}

// addDistinct adds the srcs not yet in ids, keeping ids sorted.
func addDistinct(ids, srcs []string) []string {
	for _, s := range srcs {
		if i, found := slices.BinarySearch(ids, s); !found {
			ids = slices.Insert(ids, i, s)
		}
	}
	return ids
}

// refSourceForLabelExcluding picks, among the covering sources not in
// exclude, by the pick rule (refCheapest).
func refSourceForLabelExcluding(d *Directory, label string, preferred []string, exclude map[string]bool) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var best refCheapest
	for _, s := range refCovering(d, label) {
		if !exclude[s] {
			best.offer(s, d.records[s].desc.Size, slices.Contains(preferred, s))
		}
	}
	return best.id
}

// refPickCached is the same pick over a lookup-cache result, pricing each
// source by the directory's record first and the router's descriptor for
// one held thin.
func refPickCached(n *Node, srcs, preferred []string, exclude map[string]bool) string {
	var best refCheapest
	for _, s := range srcs {
		if exclude[s] {
			continue
		}
		desc, ok := refDescriptor(n.dir, s)
		if !ok && n.shard != nil {
			desc, ok = n.shard.router.Desc(s)
		}
		if ok {
			best.offer(s, desc.Size, slices.Contains(preferred, s))
		}
	}
	return best.id
}

// refDescriptorOf resolves a source's descriptor from the directory,
// falling back to the router's lookup cache for one held thin.
func refDescriptorOf(n *Node, source string) (object.Descriptor, bool) {
	if desc, ok := refDescriptor(n.dir, source); ok {
		return desc, true
	}
	if n.shard != nil {
		return n.shard.router.Desc(source)
	}
	return object.Descriptor{}, false
}

// refCandidates is where a label's candidates came from: nil and false
// when the directory holds them, else the lookup-cache result (counted as
// a hit), else nil after starting a routed lookup. Callers hold n.mu.
func refCandidates(n *Node, queryID, label string) (srcs []string, cached bool) {
	if n.shard == nil || n.shard.router.OwnsLabel(label) {
		return nil, false
	}
	if srcs, ok := n.shard.router.CachedSources(label, n.now()); ok {
		n.stats.ShardLookupHits++
		return srcs, true
	}
	n.startShardLookup(label, queryID)
	return nil, false
}

// refSourceFor is the pick of a query's source for label over wherever its
// candidates came from, steering around suspects while any other covers
// it. Callers hold n.mu.
func refSourceFor(n *Node, q *localQuery, label string) string {
	srcs, cached := refCandidates(n, q.engine.ID(), label)
	pick := func(exclude map[string]bool) string {
		if cached {
			return refPickCached(n, srcs, q.selected, exclude)
		}
		return refSourceForLabelExcluding(n.dir, label, q.selected, exclude)
	}
	if len(q.suspect) > 0 {
		if s := pick(q.suspect); s != "" {
			return s
		}
	}
	return pick(nil)
}

// refCheapest keeps the minimum of the pick rule: a preferred source beats
// any other, then the smaller object, then the smaller id.
type refCheapest struct {
	id        string
	size      int64
	preferred bool
}

func (c *refCheapest) offer(id string, size int64, preferred bool) {
	if c.id == "" ||
		(preferred && !c.preferred) ||
		(preferred == c.preferred && (size < c.size || (size == c.size && id < c.id))) {
		*c = refCheapest{id: id, size: size, preferred: preferred}
	}
}

// viewPick is the pick over the view's rows of label, as the node makes
// it: the excluded sources skipped. "" when every row is.
func viewPick(v *View, label string, preferred []string, exclude map[string]bool) string {
	return rowSource(pick(v.cover(label), preferred, func(r *row) bool { return exclude[r.desc.Source] }))
}

// descriptor is a source's descriptor in the view, as the directory's
// locked Descriptor returned it.
func (v *View) descriptor(source string) (object.Descriptor, bool) {
	if r := v.source(source); r != nil {
		return r.desc, true
	}
	return object.Descriptor{}, false
}

// rowSource is a picked row's source, "" for none.
func rowSource(r *row) string {
	if r == nil {
		return ""
	}
	return r.desc.Source
}

// viewSelect is a full replica's cover over the view.
func viewSelect(d *Directory, labels []string) []string {
	return (&Node{dir: d}).selectSources(d.View(), "", labels)
}

// dumpView prints everything a view holds, to tell whether it changed.
func dumpView(v *View) string {
	out := fmt.Sprintf("v%d", v.version)
	for _, vl := range v.labels {
		out += " " + vl.label + ":"
		for _, r := range v.cover(vl.label) {
			out += fmt.Sprintf(" %+v", *r)
		}
	}
	for _, r := range v.rows {
		out += fmt.Sprintf(" %+v", r)
	}
	return out
}

// The view equals the locked readers it replaced: seeded random runs of
// Advertise (sizes that tie, names two sources share, a label named twice
// by one descriptor), Withdraw, Evict, SetRetention and Refilter over six
// sources and five labels. After each step, every label's rows
// (descriptors and seqs, in source order), every source's Descriptor,
// AdvertsFor, the pick under random preferred and excluded sets, and the
// cover of a random label set are the reference's.
// A view is rebuilt exactly when the version moved, and a view taken
// earlier reads as it did however the directory changes after it.
func TestViewMatchesLockedReaders(t *testing.T) {
	srcs := []string{"a", "b", "c", "d", "e", "f"}
	labels := []string{"l0", "l1", "l2", "l3", "l4", "nobody"}
	filters := []func(object.Descriptor) bool{
		nil,
		func(desc object.Descriptor) bool { return desc.Source < "d" },
		func(desc object.Descriptor) bool { return desc.Size < 300 },
	}
	builds := 0
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory(nil)
		var old []*View
		var oldDump []string
		for op := 0; op < 60; op++ {
			before := d.View()
			src := srcs[rng.Intn(len(srcs))]
			seq := uint64(1 + rng.Intn(4))
			var what string
			switch k := rng.Intn(10); {
			case k < 5:
				var ls []string
				for _, l := range labels[:5] {
					if rng.Intn(3) == 0 {
						ls = append(ls, l)
					}
				}
				if len(ls) > 0 && rng.Intn(4) == 0 {
					ls = append(ls, ls[rng.Intn(len(ls))]) // one label named twice
				}
				name := "/g/" + src
				if rng.Intn(4) == 0 {
					name = "/g/shared"
				}
				size := int64(100 * (1 + rng.Intn(3)))
				what = fmt.Sprintf("Advertise(%s@%d %s %d %v)", src, seq, name, size, ls)
				d.Advertise(dirDesc(src, name, size, ls...), seq)
			case k == 5:
				what = fmt.Sprintf("Withdraw(%s@%d)", src, seq)
				d.Withdraw(src, seq)
			case k == 6 || k == 7:
				what = fmt.Sprintf("Evict(%s)", src)
				d.Evict(src)
			case k == 8:
				f := rng.Intn(len(filters))
				what = fmt.Sprintf("SetRetention(%d)", f)
				d.SetRetention(filters[f])
			default:
				what = "Refilter"
				d.Refilter()
			}
			at := fmt.Sprintf("seed %d op %d %s", seed, op, what)
			v := d.View()
			if moved := v.version != before.version; moved != (v != before) || v.version != d.Version() {
				t.Fatalf("%s: view v%d (was v%d), directory v%d", at, v.version, before.version, d.Version())
			}
			for _, l := range labels {
				var got []object.Descriptor
				for _, r := range v.cover(l) {
					got = append(got, r.desc)
				}
				if want := refAppendCovering(d, nil, l); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: rows of %s %+v, reference %+v", at, l, got, want)
				}
				if got, want := v.AdvertsFor(l), refAdvertsFor(d, l); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AdvertsFor(%s) %+v, reference %+v", at, l, got, want)
				}
				var preferred []string
				exclude := make(map[string]bool)
				for _, s := range srcs {
					if rng.Intn(3) == 0 {
						preferred = append(preferred, s)
					}
					if rng.Intn(4) == 0 {
						exclude[s] = true
					}
				}
				if got, want := viewPick(v, l, preferred, exclude), refSourceForLabelExcluding(d, l, preferred, exclude); got != want {
					t.Fatalf("%s: pick(%s, %v, -%v) = %q, reference %q", at, l, preferred, exclude, got, want)
				}
				if got, want := d.SourceForLabel(l, preferred), refSourceForLabelExcluding(d, l, preferred, nil); got != want {
					t.Fatalf("%s: SourceForLabel(%s, %v) = %q, reference %q", at, l, preferred, got, want)
				}
			}
			for _, s := range srcs {
				got, gok := v.descriptor(s)
				want, wok := refDescriptor(d, s)
				if gok != wok || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Descriptor(%s) %+v %v, reference %+v %v", at, s, got, gok, want, wok)
				}
			}
			var set []string
			for _, l := range labels {
				if rng.Intn(2) == 0 {
					set = append(set, l)
				}
			}
			if got, want := viewSelect(d, set), refSelectSources(d, set); !slices.Equal(got, want) {
				t.Fatalf("%s: cover of %v %v, reference %v", at, set, got, want)
			}
			if v != before {
				builds++
				old, oldDump = append(old, v), append(oldDump, dumpView(v))
			}
		}
		for i, v := range old {
			if got := dumpView(v); got != oldDump[i] {
				t.Fatalf("seed %d: view v%d changed after later mutations:\n%s\nwas\n%s", seed, v.version, got, oldDump[i])
			}
		}
	}
	if builds < 1000 {
		t.Errorf("only %d views built: the generator rarely changes the directory", builds)
	}
}

// Readers take views while a writer churns the directory, as athenad's
// connection goroutines read it while its membership layer writes: every
// view a reader holds stays whole and readable. go test -race checks that
// nothing a reader touches is written.
func TestViewReadersRaceWriters(t *testing.T) {
	d := NewDirectory(nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= 300; i++ {
			src := fmt.Sprintf("s%d", i%7)
			d.Advertise(dirDesc(src, "/cam/"+src, int64(100+i%3), "l", fmt.Sprintf("m%d", i%4)), uint64(i))
			switch i % 5 {
			case 1:
				d.Evict(src)
			case 2:
				d.Withdraw(fmt.Sprintf("s%d", (i+3)%7), uint64(i))
			case 3:
				d.SetRetention(func(desc object.Descriptor) bool { return desc.Size != 101 })
			case 4:
				d.SetRetention(nil)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := &Node{dir: d}
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := d.View()
				for _, l := range []string{"l", "m0", "m1", "m2", "m3"} {
					for _, row := range v.cover(l) {
						if got := v.source(row.desc.Source); got == nil || got.desc.Source != row.desc.Source {
							t.Errorf("v%d: %s's row has no descriptor", v.version, row.desc.Source)
						}
					}
					v.AdvertsFor(l)
					viewPick(v, l, []string{"s3"}, map[string]bool{"s1": true})
				}
				n.selectSources(v, "", []string{"l", "m1", "m2"})
				d.SourceForLabel("m0", nil)
			}
		}()
	}
	wg.Wait()
}

// A view is a constant number of flat arrays: building one allocates the
// same at ten sources as at a thousand, and its label index holds no
// capacity past one span per label.
func TestViewBuildAllocsFlat(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{10, 1000} {
		d := NewDirectory(nil)
		for i := 0; i < n; i++ {
			src := fmt.Sprintf("s%04d", i)
			d.Advertise(dirDesc(src, fmt.Sprintf("/cam/%d", i%(n/2)), int64(100+i%7),
				fmt.Sprintf("l%d", i%(n/3)), fmt.Sprintf("l%d", (i+1)%(n/3)), "all"), 1)
		}
		var v *View
		allocs[n] = testing.AllocsPerRun(20, func() {
			d.mu.Lock()
			v = d.buildViewLocked()
			d.mu.Unlock()
		})
		if len(v.rows) != n || len(v.cover("all")) != n {
			t.Fatalf("%d sources: view of %d rows, %d covering all", n, len(v.rows), len(v.cover("all")))
		}
		if cap(v.labels) != len(v.labels) {
			t.Errorf("%d sources: the view keeps capacity for %d label spans, holding %d", n, cap(v.labels), len(v.labels))
		}
	}
	if allocs[10] != allocs[1000] || allocs[10] > 5 {
		t.Errorf("a view build allocates %v times at 10 sources and %v at 1000, want the same, at most 5", allocs[10], allocs[1000])
	}
}
