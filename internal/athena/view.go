package athena

import (
	"cmp"
	"slices"
	"strings"

	"athena/internal/cover"
	"athena/internal/object"
)

// View is one directory version, read-only: every present source whose
// payload is held here, as a row, and per label the rows of the sources
// covering it, in source order. Directory.View builds it on the first read
// after a version bump; nothing writes it after that, so a reader takes no
// lock, and a view taken earlier is unchanged by what the directory applies
// later. It lives in four flat arrays, so a build makes the same few
// allocations at ten sources as at a thousand.
type View struct {
	version uint64
	// rows holds one row per present, non-thin source, by source.
	rows []row
	// labels lists every covered label, sorted; label i's rows are
	// covering[labels[i].lo:labels[i].hi].
	labels   []viewLabel
	covering []*row
	// byName lists rows' indexes by object name: a row's obj is the
	// position here of the first row advertising its object.
	byName []int32
}

// row is one source's advertisement as the data plane reads it: the
// descriptor, its sequence number, and obj, the index (in View.byName) of
// the object it names — two sources advertising one name share it. A row
// of a lookup-cache overlay whose object the view lacks has obj -1.
type row struct {
	desc object.Descriptor
	seq  uint64
	obj  int32
}

// viewLabel is one label's span of View.covering.
type viewLabel struct {
	label  string
	lo, hi int32
}

// buildViewLocked indexes the directory's present payloads at its current
// version. Callers hold d.mu.
func (d *Directory) buildViewLocked() *View {
	nrows, nspans := 0, 0
	for _, r := range d.records {
		if r.present && !r.thin {
			nrows++
			nspans += len(r.desc.Labels)
		}
	}
	v := &View{
		version:  d.version,
		rows:     make([]row, 0, nrows),
		covering: make([]*row, 0, nspans),
		byName:   make([]int32, 0, nrows),
	}
	for _, r := range d.records {
		if r.present && !r.thin {
			v.rows = append(v.rows, row{desc: r.desc, seq: r.seq})
		}
	}
	slices.SortFunc(v.rows, func(a, b row) int { return strings.Compare(a.desc.Source, b.desc.Source) })
	for i := range v.rows {
		v.byName = append(v.byName, int32(i))
	}
	slices.SortFunc(v.byName, func(a, b int32) int {
		return strings.Compare(v.rows[a].desc.Name.String(), v.rows[b].desc.Name.String())
	})
	for k, i := range v.byName {
		if k > 0 && v.rows[v.byName[k-1]].desc.Name == v.rows[i].desc.Name {
			v.rows[i].obj = v.rows[v.byName[k-1]].obj
		} else {
			v.rows[i].obj = int32(k)
		}
	}
	// One span per (label, row), lo the row, sorted by label and then row,
	// which is source order; then folded in place, in the directory's
	// scratch, into one span of covering per label, and copied out at the
	// folded length. The fold writes behind what it reads.
	d.spans = slices.Grow(d.spans[:0], nspans)
	for i := range v.rows {
		for _, l := range v.rows[i].desc.Labels {
			d.spans = append(d.spans, viewLabel{label: l, lo: int32(i)})
		}
	}
	slices.SortFunc(d.spans, func(a, b viewLabel) int {
		if c := strings.Compare(a.label, b.label); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
	labels := d.spans[:0]
	for _, s := range d.spans {
		r, n := &v.rows[s.lo], len(labels)
		if n == 0 || labels[n-1].label != s.label {
			labels = append(labels, viewLabel{label: s.label, lo: int32(len(v.covering))})
			n++
		} else if v.covering[len(v.covering)-1] == r {
			continue // a descriptor that names a label twice covers it once
		}
		v.covering = append(v.covering, r)
		labels[n-1].hi = int32(len(v.covering))
	}
	v.labels = make([]viewLabel, len(labels))
	copy(v.labels, labels)
	return v
}

// source returns the row of a present source whose payload is held here,
// nil for any other.
func (v *View) source(src string) *row {
	i, ok := slices.BinarySearchFunc(v.rows, src, func(r row, s string) int { return strings.Compare(r.desc.Source, s) })
	if !ok {
		return nil
	}
	return &v.rows[i]
}

// cover returns the rows of the sources covering label, in source order.
// The slice is the view's: read it, never write it.
func (v *View) cover(label string) []*row {
	i, ok := slices.BinarySearchFunc(v.labels, label, func(l viewLabel, s string) int { return strings.Compare(l.label, s) })
	if !ok {
		return nil
	}
	return v.covering[v.labels[i].lo:v.labels[i].hi]
}

// objIndex returns the obj of the object a row naming name would have
// here, -1 when no row of the view names it.
func (v *View) objIndex(name string) int32 {
	i, ok := slices.BinarySearchFunc(v.byName, name, func(k int32, s string) int {
		return strings.Compare(v.rows[k].desc.Name.String(), s)
	})
	if !ok {
		return -1
	}
	return int32(i)
}

// AdvertsFor returns full advertisements for the present sources covering
// a label, sorted by source — the payload a shard owner serves in a
// ShardLookupReply.
func (v *View) AdvertsFor(label string) []Advertisement {
	rows := v.cover(label)
	out := make([]Advertisement, 0, len(rows))
	for _, r := range rows {
		out = append(out, advertisementOf(r.desc, r.seq))
	}
	return out
}

// pick is the one per-label source choice: among the rows skip does not
// leave out (nil skips none), a preferred source — one in the query's
// selected set, a handful of ids scanned per row — beats any other, then
// the smaller object, then the smaller id. nil when every row is skipped.
func pick(rows []*row, preferred []string, skip func(*row) bool) *row {
	var best *row
	bestPreferred := false
	for _, r := range rows {
		if skip != nil && skip(r) {
			continue
		}
		p := slices.Contains(preferred, r.desc.Source)
		if best == nil || (p && !bestPreferred) ||
			(p == bestPreferred && (r.desc.Size < best.desc.Size ||
				(r.desc.Size == best.desc.Size && r.desc.Source < best.desc.Source))) {
			best, bestPreferred = r, p
		}
	}
	return best
}

// coverSources is the one source selection (Sec. III-B, ref [10]): greedy
// weighted set cover of the coverable labels over a candidate pool, as
// sorted source ids. The pool lists each candidate once, sorted by id —
// the greedy rule breaks ties to the lower index. Each Source shares its
// descriptor's label slice unfiltered (nothing writes it): cover.Greedy
// counts only labels in the universe it is given. When the pool cannot
// cover a label — its only candidate could not be priced — the whole pool
// is returned rather than dropping coverage.
func coverSources(coverable []string, pool []cover.Source) []string {
	if len(coverable) == 0 {
		return nil
	}
	picked, err := cover.Greedy(coverable, pool)
	if err != nil {
		picked = make([]int, len(pool))
		for i := range picked {
			picked[i] = i
		}
	}
	out := make([]string, len(picked))
	for i, idx := range picked {
		out[i] = pool[idx].ID
	}
	slices.Sort(out)
	return out
}

// addCandidate adds r's source to pool, kept sorted by id and distinct:
// candidates are gathered label by label, so a source covering several
// labels comes up several times, and is priced once.
func addCandidate(pool []cover.Source, r *row) []cover.Source {
	i, found := slices.BinarySearchFunc(pool, r.desc.Source, func(s cover.Source, id string) int { return strings.Compare(s.ID, id) })
	if found {
		return pool
	}
	return slices.Insert(pool, i, cover.Source{ID: r.desc.Source, Cost: float64(r.desc.Size), Covers: r.desc.Labels})
}
