package athena

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"athena/internal/boolexpr"
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
	// Seq is the source's monotonic advertisement sequence number, below
	// seqLimit.
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

// advertisementOf flattens a descriptor into its wire form. The advert
// shares the descriptor's labels: a directory record is never written
// after it is stored, so a served advert is a read-only view of it, and a
// receiver copies what it keeps (Descriptor).
func advertisementOf(desc object.Descriptor, seq uint64) Advertisement {
	return Advertisement{
		Source:   desc.Source,
		Name:     desc.Name.String(),
		Size:     desc.Size,
		Validity: desc.Validity,
		Labels:   desc.Labels,
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

// seqLimit bounds the sequence numbers a record can hold: seq < 2^62. A
// record's seqState shifts its seq left one bit and its piggyback rank
// (updateRank) two; below the limit neither wraps, so no two seqs share a
// vector entry, a hash or a rank. An honest source moves its seq once per
// rejoin or refutation and never comes near it; a larger seq from the
// wire is refused (seqHoldable).
const seqLimit = 1 << 62

// seqHoldable reports whether a record may take seq: below seqLimit, and
// for a tombstone or eviction notice (notice) one lower still, so that
// the refutation its subject answers with — one past it — is holdable too.
func seqHoldable(seq uint64, notice bool) bool {
	if notice {
		return seq < seqLimit-1
	}
	return seq < seqLimit
}

// advState is one source's directory record. A record outlives its
// presence: after a withdraw or eviction the sequence number is kept so
// ordering against later advertisements still works.
type advState struct {
	desc object.Descriptor
	seq  uint64
	// hash is recordHash of the source and seqState: the record's share
	// of the digest, kept with the state it hashes (stampLocked).
	hash uint64
	// present means the source is currently admitted (listed for lookups).
	present bool
	// withdrawn distinguishes an explicit leave (re-admission needs a
	// strictly newer Seq) from a failure-detector eviction (re-admission at
	// the same Seq is allowed — the eviction may have been a false
	// positive). A present record is never withdrawn.
	withdrawn bool
	// thin marks a record whose descriptor payload was declined by the
	// retention filter (the source's shard is not replicated here): the
	// sequence/liveness state is kept — digests and seq vectors still
	// converge globally — but the labels are dropped and the record has no
	// row in the view.
	thin bool
	// thinAt is the retention epoch the record last went thin at, or was
	// declined at its own seq at: while the epoch stays there, the filter
	// still declines the payload its seq carries.
	thinAt uint64
}

// takes is the one ordering rule: whether the record yields to a write at
// seq, a tombstone when withdrawn, else an advertisement. A higher seq
// wins; at an equal one a tombstone beats a presence, and an equal state
// supersedes an eviction (a local suspicion, not a statement by the
// source), or a thin record when upgrade says the retention filter wants
// the payload it declined. It compares (seq, withdrawn) itself rather than
// their seqState: a local write's seq is not held below seqLimit.
func (r *advState) takes(seq uint64, withdrawn, upgrade bool) bool {
	switch {
	case seq != r.seq:
		return seq > r.seq
	case withdrawn != r.withdrawn:
		return withdrawn
	default:
		return !withdrawn && (!r.present || (r.thin && upgrade))
	}
}

// Directory is the semantic lookup service (standing in for the paper's
// refs [8][9]): it maps labels to the sources whose advertised object
// streams can evidence them. It is a mutable, versioned store fed by
// source advertisements — Advertise admits or updates a source, Withdraw
// processes an explicit leave, and Evict removes a source the failure
// detector gave up on. Per-source monotonic sequence numbers order
// concurrent updates, so replicas that exchange advertisements converge
// regardless of delivery order; advState.takes is the one rule that
// decides which write supersedes a record. All methods are safe for
// concurrent use. The directory keeps records only: its one label index
// is the View, built from them once per version, through which the data
// plane reads it without a lock.
type Directory struct {
	mu       sync.RWMutex
	version  uint64
	records  map[string]*advState
	verGauge *metrics.Gauge // mirrors version; nil when uninstrumented

	// view is the current version's View once a reader has asked for it;
	// every bump clears it. It is built under mu and loaded without it.
	view atomic.Pointer[View]

	// digest is the XOR of every record's hash, guarded by mu.
	digest uint64

	// sources caches Sources()'s list until the next mutation, guarded by
	// mu. A mutation drops it rather than rewriting it: callers share it.
	sources   []string
	sourcesOK bool

	// keep is the retention filter installed by SetRetention (nil keeps
	// every payload — the full-replica default). It must not take locks:
	// Advertise calls it while holding d.mu.
	keep func(object.Descriptor) bool
	// epoch counts the retention filter's changes: SetRetention and every
	// Refilter (what the filter decides changed) move it on.
	epoch uint64

	// spans is buildViewLocked's scratch, one (label, row) span per label
	// a row advertises, guarded by mu.
	spans []viewLabel
}

// NewDirectory indexes the bootstrap descriptors. Later descriptors for
// the same source replace earlier ones (they get a newer sequence number).
func NewDirectory(descs []object.Descriptor) *Directory {
	d := &Directory{records: make(map[string]*advState, len(descs))}
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

// Advertise admits or updates a source's advertisement when the source's
// record takes it (advState.takes): a newer seq, or the record's own seq
// when it was evicted, or is thin and the retention filter now wants the
// payload (backfill after a shard ownership change). Returns whether the
// directory changed.
func (d *Directory) Advertise(desc object.Descriptor, seq uint64) bool {
	if desc.Source == "" {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	keepFull := d.keep == nil || d.keep(desc)
	r, ok := d.records[desc.Source]
	if !ok {
		r = &advState{}
		d.records[desc.Source] = r
	} else if !r.takes(seq, false, keepFull) {
		if r.thin && seq == r.seq {
			r.thinAt = d.epoch
		}
		return false
	}
	if keepFull {
		r.desc = desc
		r.thin = false
	} else {
		// Retention declined the payload: keep only what ordering and
		// liveness need. The name survives so re-route bookkeeping can still
		// tell which stream went away.
		r.desc = object.Descriptor{Source: desc.Source, Name: desc.Name}
		r.thin, r.thinAt = true, d.epoch
	}
	d.stampLocked(desc.Source, r, seq, false)
	r.present = true
	d.bumpVersionLocked()
	return true
}

// SetRetention installs a descriptor retention filter: advertisements the
// filter declines are stored as thin records — sequence and liveness state
// only, no descriptor payload and no row in the view — so a sharded
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
	d.epoch++
	if d.keep == nil {
		return
	}
	changed := false
	for src, r := range d.records {
		if !r.present || r.thin || d.keep(r.desc) {
			continue
		}
		r.desc = object.Descriptor{Source: src, Name: r.desc.Name}
		r.thin, r.thinAt = true, d.epoch
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
	return len(d.View().rows)
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
		r = &advState{desc: object.Descriptor{Source: source}}
		d.records[source] = r
	} else if !r.takes(seq, true, false) {
		return false
	}
	r.present = false
	d.stampLocked(source, r, seq, true)
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
	r.present = false
	d.bumpVersionLocked()
	return true
}

// Readmit undoes this replica's eviction of source when seq is the
// evicted record's own (advState.takes at an equal seq): the source was
// heard again at the state it was evicted at. The record keeps its
// payload. Returns whether the source was re-admitted.
func (d *Directory) Readmit(source string, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.records[source]
	if !ok || r.seq != seq || !r.takes(seq, false, false) {
		return false
	}
	r.present = true
	d.bumpVersionLocked()
	return true
}

// stampLocked sets a record's seq and withdrawn flag — the state replicas
// must agree on — and moves its hash in the digest with them: the one
// place either changes. Callers hold d.mu.
func (d *Directory) stampLocked(source string, r *advState, seq uint64, withdrawn bool) {
	d.digest ^= r.hash
	r.seq, r.withdrawn = seq, withdrawn
	r.hash = recordHash(source, seqState(seq, withdrawn))
	d.digest ^= r.hash
}

// bumpVersionLocked increments the mutation counter, mirrors it into
// the instrumentation gauge, and invalidates the view and the source
// list. Callers hold d.mu.
func (d *Directory) bumpVersionLocked() {
	d.version++
	d.view.Store(nil)
	d.sources, d.sourcesOK = nil, false
	// SetMax, not Set: in a cluster every replica mirrors into one fleet
	// gauge, and max-merge is the only order-independent combination.
	d.verGauge.SetMax(int64(d.version))
}

// Apply dispatches a wire advertisement to Advertise or Withdraw. One
// whose seq no record may take (seqHoldable) is refused. An advertisement
// Advertise would reject at any payload is turned away before it is
// parsed: piggybacked and synced records are mostly ones the directory
// already has, and parsing the name and copying the labels of each was
// most of what applying them cost.
func (d *Directory) Apply(a Advertisement) bool {
	if !seqHoldable(a.Seq, a.Withdrawn) {
		return false
	}
	if a.Withdrawn {
		return d.Withdraw(a.Source, a.Seq)
	}
	if d.stale(a.Source, a.Seq) {
		return false
	}
	desc, err := a.Descriptor()
	if err != nil {
		return false
	}
	return d.Advertise(desc, a.Seq)
}

// stale reports whether Advertise rejects seq for source whatever the
// payload: the record does not take it even as an upgrade, unless the
// filter has not changed since it declined that seq's payload (the
// record's thinAt is the current epoch) — then the filter declines it again.
func (d *Directory) stale(source string, seq uint64) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[source]
	return ok && !r.takes(seq, false, r.thinAt != d.epoch)
}

// View returns the directory's current version as a read-only index,
// building it if this is the version's first read. Readers share it and
// take no lock; the next mutation leaves it as it is and starts a new one.
func (d *Directory) View() *View {
	if v := d.view.Load(); v != nil {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v := d.view.Load(); v != nil {
		return v
	}
	v := d.buildViewLocked()
	d.view.Store(v)
	return v
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
// known source's sequence number and withdrawn flag, as the XOR of the
// records' hashes. Presence is excluded on purpose — evictions are local
// suspicions, and two healthy replicas disagreeing only about an eviction
// should not ping-pong anti-entropy exchanges. Equal digests mean no
// advertisement either side is missing (up to a 2^-64 collision). The
// fold is kept as records change, so reading it costs a lock.
func (d *Directory) Digest() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.digest
}

// recordHash is FNV-1a over a record's source and its seqState's eight
// bytes, low first: hash/fnv's 64a parameters without its allocation.
func recordHash(source string, state uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(source); i++ {
		h = (h ^ uint64(source[i])) * fnvPrime64
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (state >> (8 * i) & 0xff)) * fnvPrime64
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

// syncRecord is one record a scoped exchange can carry, for
// ShardRouter.Digest: a present full record's labels (the record's own,
// read-only), or a withdrawn tombstone (in every scope), with the record's
// hash.
type syncRecord struct {
	labels    []string
	tombstone bool
	hash      uint64
}

// syncRecords appends to buf every record a scoped SeqVector can list —
// present full records and withdrawn tombstones — in no particular order,
// and returns it with the version it was read at.
func (d *Directory) syncRecords(buf []syncRecord) ([]syncRecord, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, r := range d.records {
		if !r.withdrawn && (!r.present || r.thin) {
			continue
		}
		//lint:allow maporder the one caller folds the records with XOR, which no order changes
		buf = append(buf, syncRecord{labels: r.desc.Labels, tombstone: r.withdrawn, hash: r.hash})
	}
	return buf, d.version
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
		if scope == nil || r.withdrawn || (r.present && !r.thin && scope(r.desc)) {
			out[src] = seqState(r.seq, r.withdrawn)
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
	// Only an unscoped delta is sized for the whole directory: a scoped
	// one (a shard sync) ships a few records at most, and is usually empty.
	size := 0
	if scope == nil {
		size = len(d.records)
	}
	out := make([]Advertisement, 0, size)
	for src, r := range d.records {
		if !r.withdrawn && !(r.present && !r.thin && (scope == nil || scope(r.desc))) {
			continue
		}
		// The peer's vector is checked before the advert is built: a
		// caught-up peer costs no labels copy.
		if have, ok := peer[src]; ok && seqState(r.seq, r.withdrawn) <= have {
			continue
		}
		if r.withdrawn {
			out = append(out, Advertisement{Source: src, Seq: r.seq, Withdrawn: true})
		} else {
			out = append(out, advertisementOf(r.desc, r.seq))
		}
	}
	sortAdverts(out)
	return out
}

// Snapshot returns every present advertisement plus withdrawn tombstones,
// sorted by source: the delta against a peer that has seen nothing — what
// the join handshake sends.
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

// Records counts the sources the directory has a record for — present,
// withdrawn or evicted: AllSources' length, without the list.
func (d *Directory) Records() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.records)
}

// Sources lists the present source nodes, sorted. The list is built once
// per directory version and shared by every caller until the next
// mutation: it is read-only. (The SWIM sampler and the shard router both
// read it when the version moves.)
func (d *Directory) Sources() []string {
	d.mu.RLock()
	if d.sourcesOK {
		out := d.sources
		d.mu.RUnlock()
		return out
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.sourcesOK {
		out := make([]string, 0, len(d.records))
		for src, r := range d.records {
			if r.present {
				out = append(out, src)
			}
		}
		sort.Strings(out)
		d.sources, d.sourcesOK = out, true
	}
	return d.sources
}

// Has reports whether the source is currently admitted.
func (d *Directory) Has(source string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[source]
	return ok && r.present
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

// SourceForLabel picks, among preferred sources (if any cover the label),
// the cheapest covering source; preferred is typically the query's
// selected-source set. Returns "" if nobody covers the label.
func (d *Directory) SourceForLabel(label string, preferred []string) string {
	if r := pick(d.View().cover(label), preferred, nil); r != nil {
		return r.desc.Source
	}
	return ""
}
