package athena

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/cover"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
)

// Advertisement is the wire form of one source's directory record: a
// flattened descriptor plus the advertisement sequence number that orders
// updates from the same source. Withdrawn records are tombstones left by
// explicit leaves so stale re-advertisements cannot resurrect a departed
// source.
type Advertisement struct {
	// Source is the advertising node.
	Source string
	// Name is the advertised object stream's semantic name.
	Name string
	// Size is the typical object size in bytes.
	Size int64
	// Validity is the stream's freshness interval.
	Validity time.Duration
	// Labels are the predicates the stream evidences.
	Labels []string
	// ProbTrue is the prior probability a label from this stream is true.
	ProbTrue float64
	// Seq is the source's monotonic advertisement sequence number.
	Seq uint64
	// Withdrawn marks a tombstone from an explicit leave.
	Withdrawn bool
}

// Descriptor reconstructs the object.Descriptor the advertisement carries.
func (a Advertisement) Descriptor() (object.Descriptor, error) {
	name, err := names.Parse(a.Name)
	if err != nil {
		return object.Descriptor{}, err
	}
	return object.Descriptor{
		Name:     name,
		Size:     a.Size,
		Validity: a.Validity,
		Labels:   append([]string(nil), a.Labels...),
		Source:   a.Source,
		ProbTrue: a.ProbTrue,
	}, nil
}

// advertisementOf flattens a descriptor into its wire form.
func advertisementOf(desc object.Descriptor, seq uint64) Advertisement {
	return Advertisement{
		Source:   desc.Source,
		Name:     desc.Name.String(),
		Size:     desc.Size,
		Validity: desc.Validity,
		Labels:   append([]string(nil), desc.Labels...),
		ProbTrue: desc.ProbTrue,
		Seq:      seq,
	}
}

// PriceLabels folds descs into meta, the planner's per-label table, and
// returns it (a nil meta starts a new table): the cheapest advertised
// stream that evidences a label prices it — cost is that stream's object
// size, with its ProbTrue and Validity.
func PriceLabels(meta boolexpr.MetaTable, descs []object.Descriptor) boolexpr.MetaTable {
	if meta == nil {
		meta = make(boolexpr.MetaTable)
	}
	for _, d := range descs {
		for _, l := range d.Labels {
			if existing, ok := meta[l]; !ok || float64(d.Size) < existing.Cost {
				meta[l] = boolexpr.Meta{Cost: float64(d.Size), ProbTrue: d.ProbTrue, Validity: d.Validity}
			}
		}
	}
	return meta
}

// advState is one source's directory record. A record outlives its
// presence: after a withdraw or eviction the sequence number is kept so
// ordering against later advertisements still works.
type advState struct {
	desc object.Descriptor
	seq  uint64
	// present means the source is currently admitted (listed for lookups).
	present bool
	// withdrawn distinguishes an explicit leave (re-admission needs a
	// strictly newer Seq) from a failure-detector eviction (re-admission at
	// the same Seq is allowed — the eviction may have been a false
	// positive).
	withdrawn bool
	// thin marks a record whose descriptor payload was declined by the
	// retention filter (the source's shard is not replicated here): the
	// sequence/liveness state is kept — digests and seq vectors still
	// converge globally — but the labels are dropped and the record is not
	// in the label index.
	thin bool
}

// Directory is the semantic lookup service (standing in for the paper's
// refs [8][9]): it maps labels to the sources whose advertised object
// streams can evidence them. It is a mutable, versioned store fed by
// source advertisements — Advertise admits or updates a source, Withdraw
// processes an explicit leave, and Evict removes a source the failure
// detector gave up on. Per-source monotonic sequence numbers order
// concurrent updates, so replicas that exchange advertisements converge
// regardless of delivery order. All methods are safe for concurrent use.
type Directory struct {
	mu       sync.RWMutex
	version  uint64
	records  map[string]*advState
	byLabel  map[string][]string // present sources per label, sorted
	verGauge *metrics.Gauge      // mirrors version; nil when uninstrumented

	// digest caches Digest()'s value until the next mutation. digestSrcs
	// is the recompute's sort scratch; both are guarded by mu.
	digest     uint64
	digestOK   bool
	digestSrcs []string

	// keep is the retention filter installed by SetRetention (nil keeps
	// every payload — the full-replica default). It must not take locks:
	// Advertise calls it while holding d.mu.
	keep func(object.Descriptor) bool
}

// NewDirectory indexes the bootstrap descriptors. Later descriptors for
// the same source replace earlier ones (they get a newer sequence number).
func NewDirectory(descs []object.Descriptor) *Directory {
	d := &Directory{
		records: make(map[string]*advState, len(descs)),
		byLabel: make(map[string][]string),
	}
	for i, desc := range descs {
		d.Advertise(desc, uint64(i)+1)
	}
	return d
}

// Instrument mirrors the directory's version counter into the given gauge
// (nil for a no-op) so pollers can watch membership churn without locking
// the directory.
func (d *Directory) Instrument(version *metrics.Gauge) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.verGauge = version
	d.verGauge.SetMax(int64(d.version))
}

// Advertise admits or updates a source's advertisement. It applies only
// when seq is newer than the source's current record (or equal, for a
// source that was evicted rather than withdrawn — an eviction is a local
// suspicion, not a statement by the source). Returns whether the
// directory changed.
func (d *Directory) Advertise(desc object.Descriptor, seq uint64) bool {
	if desc.Source == "" {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	keepFull := d.keep == nil || d.keep(desc)
	r, ok := d.records[desc.Source]
	if ok {
		if r.present && seq <= r.seq {
			// One re-application at the current seq is allowed: upgrading a
			// thin record to a full one when the retention filter now wants
			// the payload (backfill after a shard ownership change).
			if !(r.thin && keepFull && seq == r.seq) {
				return false
			}
		}
		if !r.present && (seq < r.seq || (r.withdrawn && seq == r.seq)) {
			return false
		}
		if r.present && !r.thin {
			d.unindexLocked(r.desc)
		}
	} else {
		r = &advState{}
		d.records[desc.Source] = r
	}
	if keepFull {
		r.desc = desc
		r.thin = false
		d.indexLocked(desc)
	} else {
		// Retention declined the payload: keep only what ordering and
		// liveness need. The name survives so re-route bookkeeping can still
		// tell which stream went away.
		r.desc = object.Descriptor{Source: desc.Source, Name: desc.Name}
		r.thin = true
	}
	r.seq = seq
	r.present = true
	r.withdrawn = false
	d.bumpVersionLocked()
	return true
}

// SetRetention installs a descriptor retention filter: advertisements the
// filter declines are stored as thin records — sequence and liveness state
// only, no descriptor payload and no label-index entry — so a sharded
// node's descriptor memory stays proportional to the shards it replicates
// while digests and sequence vectors still converge globally. A nil filter
// keeps every payload (the full-replica default). Existing full records
// the filter declines are demoted immediately; thin records it now wants
// are promoted by the next scoped sync (the payload is gone locally).
func (d *Directory) SetRetention(keep func(object.Descriptor) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keep = keep
	d.refilterLocked()
}

// Refilter re-applies the retention filter to every held record, demoting
// full records the filter no longer wants. Call it after the filter's
// decision inputs change (a shard ownership change); promotions happen via
// scoped sync, not here.
func (d *Directory) Refilter() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refilterLocked()
}

func (d *Directory) refilterLocked() {
	if d.keep == nil {
		return
	}
	changed := false
	for src, r := range d.records {
		if !r.present || r.thin || d.keep(r.desc) {
			continue
		}
		d.unindexLocked(r.desc)
		r.desc = object.Descriptor{Source: src, Name: r.desc.Name}
		r.thin = true
		changed = true
	}
	if changed {
		d.bumpVersionLocked()
	}
}

// EntriesHeld counts the records whose descriptor payload is held locally
// (present, non-thin) — the per-node directory-memory metric ablation A9
// reports. A full replica holds every present source.
func (d *Directory) EntriesHeld() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, r := range d.records {
		if r.present && !r.thin {
			n++
		}
	}
	return n
}

// Withdraw processes an explicit leave: the source's record becomes a
// tombstone at the given sequence number, rejecting any advertisement at
// or below it. Withdrawing an unknown source records the tombstone too
// (the leave may arrive before the join on some replica). Returns whether
// the directory changed.
func (d *Directory) Withdraw(source string, seq uint64) bool {
	if source == "" {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.records[source]
	if !ok {
		d.records[source] = &advState{
			desc:      object.Descriptor{Source: source},
			seq:       seq,
			withdrawn: true,
		}
		d.bumpVersionLocked()
		return true
	}
	if seq < r.seq || (!r.present && r.withdrawn && seq == r.seq) {
		return false
	}
	if r.present {
		d.unindexLocked(r.desc)
	}
	r.present = false
	r.withdrawn = true
	r.seq = seq
	d.bumpVersionLocked()
	return true
}

// Evict removes a source the failure detector declared dead. The sequence
// number is kept and re-admission at the same number stays possible, so a
// false positive heals as soon as the source is heard from again. Returns
// whether the source was present.
func (d *Directory) Evict(source string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.records[source]
	if !ok || !r.present {
		return false
	}
	d.unindexLocked(r.desc)
	r.present = false
	r.withdrawn = false
	d.bumpVersionLocked()
	return true
}

// bumpVersionLocked increments the mutation counter, mirrors it into
// the instrumentation gauge, and invalidates the cached digest. Callers
// hold d.mu.
func (d *Directory) bumpVersionLocked() {
	d.version++
	d.digestOK = false
	// SetMax, not Set: in a cluster every replica mirrors into one fleet
	// gauge, and max-merge is the only order-independent combination.
	d.verGauge.SetMax(int64(d.version))
}

// Apply dispatches a wire advertisement to Advertise or Withdraw.
func (d *Directory) Apply(a Advertisement) bool {
	if a.Withdrawn {
		return d.Withdraw(a.Source, a.Seq)
	}
	desc, err := a.Descriptor()
	if err != nil {
		return false
	}
	return d.Advertise(desc, a.Seq)
}

// Version returns the mutation counter: it increments on every applied
// Advertise/Withdraw/Evict, so pollers can detect change cheaply. It is a
// local counter — versions of different replicas are not comparable.
func (d *Directory) Version() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version
}

// Digest summarizes the advertisement state replicas must agree on: every
// known source's sequence number and withdrawn flag. Presence is excluded
// on purpose — evictions are local suspicions, and two healthy replicas
// disagreeing only about an eviction should not ping-pong anti-entropy
// exchanges. Equal digests mean no advertisement either side is missing.
// The digest is cached until the next mutation: probes attach it on
// every ping, and between membership changes recomputing the sorted
// fold is pure waste.
func (d *Directory) Digest() uint64 {
	d.mu.RLock()
	if d.digestOK {
		v := d.digest
		d.mu.RUnlock()
		return v
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.digestOK {
		d.digest = d.computeDigestLocked()
		d.digestOK = true
	}
	return d.digest
}

// computeDigestLocked folds the record state with FNV-1a, matching
// hash/fnv's 64a parameters without its allocation. Callers hold d.mu
// for writing (the sort scratch is reused).
func (d *Directory) computeDigestLocked() uint64 {
	srcs := d.digestSrcs[:0]
	for s := range d.records {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	d.digestSrcs = srcs
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, s := range srcs {
		r := d.records[s]
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		for i := 0; i < 8; i++ {
			h = (h ^ (r.seq >> (8 * i) & 0xff)) * prime64
		}
		w := uint64(0)
		if r.withdrawn {
			w = 1
		}
		h = (h ^ w) * prime64
	}
	return h
}

// seqState encodes one record's ordering state for vector exchange: the
// sequence number shifted left one bit with the withdrawn flag in the low
// bit, so a tombstone at seq n orders strictly after a presence at seq n —
// exactly the precedence Withdraw/Advertise apply.
func seqState(seq uint64, withdrawn bool) uint64 {
	s := seq << 1
	if withdrawn {
		s |= 1
	}
	return s
}

// SeqVector summarizes the sequence state of the sources in scope for a
// delta anti-entropy exchange: source → seqState. It is the watermark Delta
// extracts changes against, and costs O(sources) small entries instead of
// the full advertisement snapshot. A nil scope lists every record the
// directory has, evicted and thin ones included (the unsharded exchange
// covers the whole seq space); a scope lists what Delta could ship under
// it — the full present records it accepts plus every withdrawn tombstone.
func (d *Directory) SeqVector(scope func(object.Descriptor) bool) map[string]uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	// Only the unscoped vector is sized up front: a scope keeps a small
	// share of a large directory, and a map sized for all of it costs the
	// sharded fleet more than the rehashes it saves.
	size := 0
	if scope == nil {
		size = len(d.records)
	}
	out := make(map[string]uint64, size)
	for src, r := range d.records {
		withdrawn := !r.present && r.withdrawn
		if scope == nil || withdrawn || (r.present && !r.thin && scope(r.desc)) {
			out[src] = seqState(r.seq, withdrawn)
		}
	}
	return out
}

// Delta returns the records that are news to a replica whose SeqVector is
// peer, sorted by source — the anti-entropy exchange unit. A nil peer has
// seen nothing, so everything is news. Records are present advertisements
// the scope accepts (nil accepts all; ShardRouter.InShards restricts a
// sharded exchange to the shards both sides replicate) and withdrawn
// tombstones, which are in every scope: a tombstone's shard set is
// unknowable — its payload is gone — and its entry is tiny. Evicted records
// are omitted, because an eviction is this replica's suspicion, not state
// to push; thin records because their payload is not held here. scope runs
// under the directory lock and must take none.
func (d *Directory) Delta(peer map[string]uint64, scope func(object.Descriptor) bool) []Advertisement {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Advertisement, 0, len(d.records))
	for src, r := range d.records {
		var a Advertisement
		switch {
		case r.present && !r.thin && (scope == nil || scope(r.desc)):
			a = advertisementOf(r.desc, r.seq)
		case !r.present && r.withdrawn:
			a = Advertisement{Source: src, Seq: r.seq, Withdrawn: true}
		default:
			continue
		}
		if have, ok := peer[src]; !ok || seqState(r.seq, a.Withdrawn) > have {
			out = append(out, a)
		}
	}
	sortAdverts(out)
	return out
}

// Snapshot returns every present advertisement plus withdrawn tombstones,
// sorted by source: the delta against a peer that has seen nothing — what
// a join handshake and a flood-mode sync exchange.
func (d *Directory) Snapshot() []Advertisement { return d.Delta(nil, nil) }

// sortAdverts orders adverts by source without sort.Slice's interface and
// swapper allocations — these sorts sit on the anti-entropy and status
// scrape paths.
func sortAdverts(out []Advertisement) {
	slices.SortFunc(out, func(a, b Advertisement) int {
		return strings.Compare(a.Source, b.Source)
	})
}

// AllSources lists every source the directory has a record for — present,
// withdrawn or evicted — sorted. The status endpoint uses it to report
// liveness for departed peers too.
func (d *Directory) AllSources() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.records))
	for src := range d.records {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// Sources lists the present source nodes, sorted.
func (d *Directory) Sources() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.records))
	for src, r := range d.records {
		if r.present {
			out = append(out, src)
		}
	}
	sort.Strings(out)
	return out
}

// Has reports whether the source is currently admitted.
func (d *Directory) Has(source string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[source]
	return ok && r.present
}

// Seq returns the highest advertisement sequence number processed for the
// source (whether or not it is present).
func (d *Directory) Seq(source string) (uint64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[source]
	if !ok {
		return 0, false
	}
	return r.seq, true
}

// Known returns the source's full record state: its highest processed
// sequence number, whether it is present, and whether its absence is an
// explicit withdraw (vs. a local eviction). A source never heard of
// returns (0, false, false).
func (d *Directory) Known(source string) (seq uint64, present, withdrawn bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[source]
	if !ok {
		return 0, false, false
	}
	return r.seq, r.present, r.withdrawn
}

// indexLocked adds a present source to the label index. Callers hold d.mu.
func (d *Directory) indexLocked(desc object.Descriptor) {
	for _, l := range desc.Labels {
		srcs := d.byLabel[l]
		i := sort.SearchStrings(srcs, desc.Source)
		if i < len(srcs) && srcs[i] == desc.Source {
			continue
		}
		srcs = append(srcs, "")
		copy(srcs[i+1:], srcs[i:])
		srcs[i] = desc.Source
		d.byLabel[l] = srcs
	}
}

// unindexLocked removes a source from the label index. Callers hold d.mu.
func (d *Directory) unindexLocked(desc object.Descriptor) {
	for _, l := range desc.Labels {
		srcs := d.byLabel[l]
		i := sort.SearchStrings(srcs, desc.Source)
		if i >= len(srcs) || srcs[i] != desc.Source {
			continue
		}
		srcs = append(srcs[:i], srcs[i+1:]...)
		if len(srcs) == 0 {
			delete(d.byLabel, l)
		} else {
			d.byLabel[l] = srcs
		}
	}
}

// SourcesFor lists the source nodes covering a label, sorted.
func (d *Directory) SourcesFor(label string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.byLabel[label]...)
}

// AdvertsFor returns full advertisements for the present sources covering
// a label, sorted by source — the payload a shard owner serves in a
// ShardLookupReply.
func (d *Directory) AdvertsFor(label string) []Advertisement {
	d.mu.RLock()
	defer d.mu.RUnlock()
	srcs := d.byLabel[label]
	out := make([]Advertisement, 0, len(srcs))
	for _, s := range srcs {
		r := d.records[s]
		out = append(out, advertisementOf(r.desc, r.seq))
	}
	return out
}

// Descriptor returns a present source node's advertised stream. Thin
// records (payload declined by the retention filter) read as absent, so
// callers fall through to the shard-routed remote lookup.
func (d *Directory) Descriptor(source string) (object.Descriptor, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[source]
	if !ok || !r.present || r.thin {
		return object.Descriptor{}, false
	}
	return r.desc, true
}

// SelectSources solves the Section III-B coverage problem for a label set:
// the least-cost subset of sources covering all labels (coverSources). It
// returns the chosen source ids. Labels nobody covers are simply omitted
// from the result's coverage (the query will fail to resolve them, which is
// surfaced at decision time).
func (d *Directory) SelectSources(labels []string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	coverable := make([]string, 0, len(labels))
	var ids []string
	for _, l := range labels {
		srcs := d.byLabel[l]
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

// addDistinct adds the srcs not yet in ids, keeping ids sorted: candidates
// are gathered label by label, so a source covering several labels comes
// up several times, and is priced once.
func addDistinct(ids, srcs []string) []string {
	for _, s := range srcs {
		if i, found := slices.BinarySearch(ids, s); !found {
			ids = slices.Insert(ids, i, s)
		}
	}
	return ids
}

// coverSources is the one source selection (Sec. III-B, ref [10]): greedy
// weighted set cover of the coverable labels over a candidate pool, as
// sorted source ids. The pool lists each candidate once, sorted by id —
// the greedy rule breaks ties to the lower index. Each Source shares its
// descriptor's label slice unfiltered (nothing writes it): cover.Greedy
// counts only labels in the universe it is given. When the pool cannot
// cover a label — its only candidate could not be priced — the whole pool
// is returned rather than dropping coverage. It takes data, not callbacks,
// because Directory.SelectSources runs it under the directory lock.
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

// SourceForLabel picks, among preferred sources (if any cover the label),
// the cheapest covering source; preferred is typically the query's
// selected-source set. Returns "" if nobody covers the label.
func (d *Directory) SourceForLabel(label string, preferred []string) string {
	return d.SourceForLabelExcluding(label, preferred, nil)
}

// SourceForLabelExcluding is SourceForLabel restricted to sources not in
// exclude. The retry layer uses it to find an alternate source when the
// primary keeps timing out (Section VI-B's directory-supplied alternates).
// Returns "" when every covering source is excluded.
func (d *Directory) SourceForLabelExcluding(label string, preferred []string, exclude map[string]bool) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var best cheapest
	for _, s := range d.byLabel[label] {
		if !exclude[s] {
			best.offer(s, d.records[s].desc.Size, slices.Contains(preferred, s))
		}
	}
	return best.id
}

// cheapest keeps the minimum of the pick rule every per-label source
// choice applies (this one, Node.pickCached over a routed lookup result,
// corrSource over the sources yet to vote): a preferred source beats any
// other, then the smaller object, then the smaller id. preferred is a
// query's selected set — a handful of ids, which callers scan per offer
// rather than copy into a set per call.
type cheapest struct {
	id        string
	size      int64
	preferred bool
}

// offer replaces the kept source when the offered one ranks before it.
func (c *cheapest) offer(id string, size int64, preferred bool) {
	if c.id == "" ||
		(preferred && !c.preferred) ||
		(preferred == c.preferred && (size < c.size || (size == c.size && id < c.id))) {
		*c = cheapest{id: id, size: size, preferred: preferred}
	}
}
