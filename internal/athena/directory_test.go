package athena

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"athena/internal/cover"
	"athena/internal/names"
	"athena/internal/object"
)

func dirDesc(source, name string, size int64, labels ...string) object.Descriptor {
	return object.Descriptor{
		Name:     names.MustParse(name),
		Size:     size,
		Source:   source,
		Labels:   labels,
		Validity: time.Minute,
		ProbTrue: 0.8,
	}
}

func TestSelectSourcesTieBreaking(t *testing.T) {
	// Two equal-cost sources each fully cover the label set; the greedy
	// cover must pick deterministically (lexicographically first).
	d := NewDirectory([]object.Descriptor{
		dirDesc("nodeB", "/cam/b", 100, "l1", "l2"),
		dirDesc("nodeA", "/cam/a", 100, "l1", "l2"),
		dirDesc("nodeC", "/cam/c", 500, "l1"),
	})
	got := d.SelectSources([]string{"l1", "l2"})
	if len(got) != 1 || got[0] != "nodeA" {
		t.Fatalf("SelectSources tie-break: got %v, want [nodeA]", got)
	}
	// Labels nobody covers are omitted, not an error.
	if got := d.SelectSources([]string{"l1", "nocov"}); len(got) != 1 {
		t.Fatalf("SelectSources with uncoverable label: got %v", got)
	}
	if got := d.SelectSources([]string{"nocov"}); got != nil {
		t.Fatalf("SelectSources all-uncoverable: got %v, want nil", got)
	}
}

func TestSourceForLabelExcludingFallback(t *testing.T) {
	d := NewDirectory([]object.Descriptor{
		dirDesc("cheap", "/cam/1", 100, "l"),
		dirDesc("mid", "/cam/2", 200, "l"),
		dirDesc("dear", "/cam/3", 300, "l"),
	})
	// Preferred set wins even when a cheaper source exists outside it.
	if got := d.SourceForLabel("l", []string{"mid", "dear"}); got != "mid" {
		t.Fatalf("preferred: got %q, want mid", got)
	}
	// Excluding the preferred pick falls back to the next preferred.
	if got := d.SourceForLabelExcluding("l", []string{"mid", "dear"}, map[string]bool{"mid": true}); got != "dear" {
		t.Fatalf("exclude preferred: got %q, want dear", got)
	}
	// Excluding every preferred source falls back outside the set.
	ex := map[string]bool{"mid": true, "dear": true}
	if got := d.SourceForLabelExcluding("l", []string{"mid", "dear"}, ex); got != "cheap" {
		t.Fatalf("exclude all preferred: got %q, want cheap", got)
	}
	// Excluding everyone yields "".
	ex["cheap"] = true
	if got := d.SourceForLabelExcluding("l", nil, ex); got != "" {
		t.Fatalf("exclude all: got %q, want empty", got)
	}
}

func TestDirectoryAdvertiseWithdrawEvictOrdering(t *testing.T) {
	d := NewDirectory(nil)
	desc := dirDesc("src", "/cam/s", 100, "l")

	if !d.Advertise(desc, 1) {
		t.Fatal("initial advertise rejected")
	}
	v1 := d.Version()
	if d.Advertise(desc, 1) {
		t.Fatal("duplicate advertise at same seq applied")
	}
	if d.Version() != v1 {
		t.Fatal("rejected advertise bumped version")
	}
	if !d.Advertise(desc, 2) {
		t.Fatal("newer advertise rejected")
	}

	// Eviction is a local suspicion: re-admission at the same seq heals it.
	if !d.Evict("src") {
		t.Fatal("evict of present source failed")
	}
	if d.Has("src") {
		t.Fatal("evicted source still present")
	}
	if d.SourceForLabel("l", nil) != "" {
		t.Fatal("evicted source still serves label lookups")
	}
	if !d.Advertise(desc, 2) {
		t.Fatal("re-admission at same seq after evict rejected")
	}
	if !d.Has("src") {
		t.Fatal("source absent after re-admission")
	}

	// Withdraw is authoritative: re-admission needs a strictly newer seq.
	if !d.Withdraw("src", 2) {
		t.Fatal("withdraw at current seq rejected")
	}
	if d.Advertise(desc, 2) {
		t.Fatal("advertise at withdrawn seq applied")
	}
	if !d.Advertise(desc, 3) {
		t.Fatal("advertise past tombstone rejected")
	}

	// A withdraw for an unknown source leaves a tombstone (leave can
	// overtake join on some replica).
	if !d.Withdraw("ghost", 5) {
		t.Fatal("withdraw of unknown source not recorded")
	}
	seq, present, withdrawn := d.Known("ghost")
	if seq != 5 || present || !withdrawn {
		t.Fatalf("ghost tombstone: seq=%d present=%v withdrawn=%v", seq, present, withdrawn)
	}
	if d.Advertise(dirDesc("ghost", "/cam/g", 1, "g"), 4) {
		t.Fatal("stale advertise resurrected a tombstoned source")
	}
}

func TestDirectoryDigestAndSnapshotConvergence(t *testing.T) {
	descA := dirDesc("a", "/cam/a", 100, "l1")
	descB := dirDesc("b", "/cam/b", 200, "l2")
	d1 := NewDirectory([]object.Descriptor{descA, descB})
	d2 := NewDirectory([]object.Descriptor{descB, descA})
	// Same content, different bootstrap order: the per-source seqs differ,
	// so exchange snapshots until both apply nothing new.
	for _, a := range d1.Snapshot() {
		d2.Apply(a)
	}
	for _, a := range d2.Snapshot() {
		d1.Apply(a)
	}
	if d1.Digest() != d2.Digest() {
		t.Fatalf("digests differ after exchange: %x vs %x", d1.Digest(), d2.Digest())
	}
	// Eviction must not change the digest (it is a local suspicion).
	before := d1.Digest()
	if !d1.Evict("a") {
		t.Fatal("evict failed")
	}
	if d1.Digest() != before {
		t.Fatal("eviction changed the digest")
	}
	// But a withdraw must.
	if !d1.Withdraw("b", 10) {
		t.Fatal("withdraw failed")
	}
	if d1.Digest() == before {
		t.Fatal("withdraw did not change the digest")
	}
	// Snapshots omit evicted records and keep withdrawn tombstones.
	snap := d1.Snapshot()
	if len(snap) != 1 || snap[0].Source != "b" || !snap[0].Withdrawn {
		t.Fatalf("snapshot after evict+withdraw: %+v", snap)
	}
}

func TestDirectoryConcurrentAdvertiseEvict(t *testing.T) {
	// Exercise the RWMutex paths under the race detector: writers
	// advertising/evicting/withdrawing while readers run lookups.
	d := NewDirectory(nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("src%d", w)
			desc := dirDesc(src, "/cam/"+src, int64(100+w), "l")
			for i := 1; i <= 200; i++ {
				d.Advertise(desc, uint64(i))
				if i%3 == 0 {
					d.Evict(src)
				}
				if i%50 == 0 {
					d.Withdraw(src, uint64(i))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.SourceForLabel("l", nil)
				d.SelectSources([]string{"l"})
				d.Sources()
				d.Snapshot()
				d.Digest()
				d.Version()
			}
		}()
	}
	wg.Wait()
	// Every writer's last operation determines its final state; the last
	// op at i=200 is Withdraw(200) preceded by Advertise(200) — withdraw
	// wins at equal seq, so nobody is present.
	if got := d.Sources(); len(got) != 0 {
		t.Fatalf("final sources: %v, want none", got)
	}
}

// Retention: a filter installed by SetRetention demotes declined payloads
// to thin records — seq state (digest, vectors, liveness) stays global
// while the descriptor payload and label index are dropped.
func TestDirectoryRetentionThinsDeclinedRecords(t *testing.T) {
	d := NewDirectory(nil)
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("n%d", i)
		if !d.Advertise(dirDesc(src, "/grid/cam/"+src, 100, "seg-h"), 1) {
			t.Fatalf("advertise %s rejected", src)
		}
	}
	full := NewDirectory(nil)
	for _, a := range d.Snapshot() {
		full.Apply(a)
	}
	keep := func(desc object.Descriptor) bool { return desc.Source < "n2" }
	d.SetRetention(keep)

	if got := d.EntriesHeld(); got != 2 {
		t.Fatalf("EntriesHeld = %d, want 2", got)
	}
	// Thin records stay in the liveness view but leave the label index and
	// descriptor store.
	if got := d.Sources(); len(got) != 4 {
		t.Fatalf("Sources = %v, want all 4", got)
	}
	if got := d.SourcesFor("seg-h"); len(got) != 2 || got[0] != "n0" || got[1] != "n1" {
		t.Fatalf("SourcesFor = %v, want [n0 n1]", got)
	}
	if _, ok := d.Descriptor("n3"); ok {
		t.Fatal("thin record returned a descriptor")
	}
	if _, ok := d.Descriptor("n1"); !ok {
		t.Fatal("retained record lost its descriptor")
	}
	// The digest covers seq state only, so a thinned replica still agrees
	// with a full one.
	if d.Digest() != full.Digest() {
		t.Fatalf("digest diverged after thinning: %#x vs %#x", d.Digest(), full.Digest())
	}
	// Snapshot and Delta ship only full payloads.
	if got := d.Snapshot(); len(got) != 2 {
		t.Fatalf("Snapshot = %d adverts, want 2", len(got))
	}
	if got := d.Delta(nil, nil); len(got) != 2 {
		t.Fatalf("Delta(nil, nil) = %d adverts, want 2", len(got))
	}

	// A re-advertisement at the SAME seq upgrades thin back to full once the
	// filter admits it (ownership-change backfill), and new advertisements
	// consult the filter on arrival.
	d.SetRetention(func(desc object.Descriptor) bool { return true })
	if !d.Advertise(dirDesc("n2", "/grid/cam/n2", 100, "seg-h"), 1) {
		t.Fatal("equal-seq thin->full upgrade rejected")
	}
	// n3 stays thin: widening the filter cannot resurrect a dropped payload
	// (the bytes are gone) — only a re-advertisement can.
	if got := d.EntriesHeld(); got != 3 {
		t.Fatalf("EntriesHeld after refilter+upgrade = %d, want 3", got)
	}
	if _, ok := d.Descriptor("n2"); !ok {
		t.Fatal("upgraded record has no descriptor")
	}
	if !d.Advertise(dirDesc("n3", "/grid/cam/n3", 100, "seg-h"), 1) {
		t.Fatal("equal-seq upgrade for n3 rejected")
	}
	if got := d.EntriesHeld(); got != 4 {
		t.Fatalf("EntriesHeld after n3 upgrade = %d, want 4", got)
	}
	if got := d.SourcesFor("seg-h"); len(got) != 4 {
		t.Fatalf("SourcesFor after upgrades = %v, want 4 sources", got)
	}
	// Duplicate equal-seq full advert on a full record is still not news.
	if d.Advertise(dirDesc("n3", "/grid/cam/n3", 100, "seg-h"), 1) {
		t.Fatal("duplicate equal-seq advert on full record reported news")
	}
}

// Scoped anti-entropy: Delta/SeqVector under a scope restrict full payloads
// to the include set but always carry withdraw tombstones.
func TestDirectoryScopedDeltaAndVector(t *testing.T) {
	d := NewDirectory(nil)
	d.Advertise(dirDesc("a", "/g/x/1", 10, "l1"), 3)
	d.Advertise(dirDesc("b", "/g/y/1", 10, "l2"), 2)
	d.Advertise(dirDesc("c", "/g/z/1", 10, "l3"), 1)
	d.Withdraw("b", 5)

	inX := func(desc object.Descriptor) bool { return desc.Source == "a" }
	vec := d.SeqVector(inX)
	if len(vec) != 2 { // a (included) + b (tombstone)
		t.Fatalf("SeqVector(scope) = %v, want a and the b tombstone", vec)
	}
	if _, ok := vec["c"]; ok {
		t.Fatal("scoped vector leaked an out-of-scope source")
	}

	delta := d.Delta(nil, inX)
	if len(delta) != 2 {
		t.Fatalf("Delta(nil, scope) = %v, want advert a + tombstone b", delta)
	}
	for _, a := range delta {
		if a.Source == "b" && !a.Withdrawn {
			t.Fatal("tombstone for b lost its withdrawn flag")
		}
		if a.Source == "c" {
			t.Fatal("scoped delta leaked an out-of-scope advert")
		}
	}
	// A peer already at the tombstone seq filters it out.
	delta = d.Delta(map[string]uint64{"b": seqState(5, true)}, inX)
	if len(delta) != 1 || delta[0].Source != "a" {
		t.Fatalf("scoped Delta vs caught-up peer = %v, want just a", delta)
	}
}

// AdvertsFor serves a shard owner's lookup reply: full adverts for the
// present sources covering a label, sorted by source.
func TestDirectoryAdvertsFor(t *testing.T) {
	d := NewDirectory(nil)
	d.Advertise(dirDesc("n2", "/g/a/2", 10, "seg"), 1)
	d.Advertise(dirDesc("n1", "/g/a/1", 10, "seg", "other"), 4)
	d.Advertise(dirDesc("n3", "/g/a/3", 10, "other"), 1)
	got := d.AdvertsFor("seg")
	if len(got) != 2 || got[0].Source != "n1" || got[1].Source != "n2" {
		t.Fatalf("AdvertsFor(seg) = %v, want sorted [n1 n2]", got)
	}
	if got[0].Seq != 4 || len(got[0].Labels) != 2 {
		t.Fatalf("AdvertsFor lost payload: %+v", got[0])
	}
	if got := d.AdvertsFor("nobody"); len(got) != 0 {
		t.Fatalf("AdvertsFor(nobody) = %v, want empty", got)
	}
}

// Listing methods must pre-size their result buffers: per-call allocations
// stay flat (AllSources, Sources) or exactly one labels copy per advert
// (Snapshot, Delta) regardless of directory size.
func TestDirectoryListingAllocs(t *testing.T) {
	const n = 64
	d := NewDirectory(nil)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("n%02d", i)
		d.Advertise(dirDesc(src, "/grid/cam/"+src, 100, "seg-h", "seg-v"), 1)
	}
	checks := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"AllSources", 2, func() { d.AllSources() }},
		{"Sources", 2, func() { d.Sources() }},
		{"Snapshot", n + 2, func() { d.Snapshot() }},
		{"Delta", n + 2, func() { d.Delta(nil, nil) }},
	}
	for _, c := range checks {
		if got := testing.AllocsPerRun(20, c.fn); got > c.max {
			t.Errorf("%s: %.0f allocs/op with %d records, want <= %.0f", c.name, got, n, c.max)
		}
	}
}

// advertKeys renders adverts as "source" or "source!" (a tombstone), in
// the order given, so a table row can name the records it expects.
func advertKeys(advs []Advertisement) []string {
	out := make([]string, len(advs))
	for i, a := range advs {
		out[i] = a.Source
		if a.Withdrawn {
			out[i] += "!"
		}
	}
	return out
}

// Delta and SeqVector are one record walk each; the peer's vector and the
// scope are arguments. The rows hold what the four methods they replaced
// returned: Delta(nil, nil) is the old Snapshot, Delta(v, nil) the old
// DeltaAgainst(v), and the scoped forms the old DeltaScoped and
// SeqVectorScoped — whose one asymmetry is kept: the unscoped vector
// lists evicted and thin records (the whole seq space converges through
// it), a scoped one only what a scoped Delta could ship. A tombstone is in
// every scope. Dropping that clause, or the thin/evicted one, fails here.
func TestDirectoryDeltaAndSeqVectorByPeerAndScope(t *testing.T) {
	d := NewDirectory(nil)
	d.SetRetention(func(desc object.Descriptor) bool { return desc.Source != "thin" })
	full := dirDesc("full", "/g/a/1", 10, "l1")
	d.Advertise(full, 3)
	d.Advertise(dirDesc("other", "/g/b/1", 10, "l2"), 4)
	d.Advertise(dirDesc("thin", "/g/c/1", 10, "l3"), 2)
	d.Advertise(dirDesc("evicted", "/g/d/1", 10, "l4"), 6)
	d.Evict("evicted")
	d.Advertise(dirDesc("gone", "/g/e/1", 10, "l5"), 5)
	d.Withdraw("gone", 5)

	// A scope is only ever asked about records whose payload is held.
	scoped := func(accept ...string) func(object.Descriptor) bool {
		return func(desc object.Descriptor) bool {
			if desc.Source == "thin" || desc.Source == "evicted" || desc.Source == "gone" {
				t.Errorf("scope consulted for %s, whose payload is not held", desc.Source)
			}
			return slices.Contains(accept, desc.Source)
		}
	}

	deltas := []struct {
		name  string
		peer  map[string]uint64
		scope func(object.Descriptor) bool
		want  []string
	}{
		{"nothing seen, no scope", nil, nil, []string{"full", "gone!", "other"}},
		{"caught up on full, behind on other, presence of gone", map[string]uint64{
			"full": seqState(3, false), "other": seqState(3, false), "gone": seqState(5, false),
		}, nil, []string{"gone!", "other"}},
		{"at the tombstone", map[string]uint64{"gone": seqState(5, true)}, nil, []string{"full", "other"}},
		{"ahead of this replica", map[string]uint64{"full": seqState(9, false)}, nil, []string{"gone!", "other"}},
		{"scope full", nil, scoped("full"), []string{"full", "gone!"}},
		{"scope full, caught up on it", map[string]uint64{"full": seqState(3, false)}, scoped("full"), []string{"gone!"}},
		{"scope nothing", nil, scoped(), []string{"gone!"}},
		{"scope everything", nil, scoped("full", "other", "thin", "evicted"), []string{"full", "gone!", "other"}},
	}
	for _, c := range deltas {
		if got := advertKeys(d.Delta(c.peer, c.scope)); !slices.Equal(got, c.want) {
			t.Errorf("Delta, %s = %v, want %v", c.name, got, c.want)
		}
	}
	snap := d.Snapshot()
	if !reflect.DeepEqual(snap, d.Delta(nil, nil)) {
		t.Errorf("Snapshot = %v, want Delta(nil, nil)", snap)
	}
	if want := advertisementOf(full, 3); !reflect.DeepEqual(snap[0], want) {
		t.Errorf("advert of full = %+v, want %+v", snap[0], want)
	}
	if want := (Advertisement{Source: "gone", Seq: 5, Withdrawn: true}); !reflect.DeepEqual(snap[1], want) {
		t.Errorf("tombstone of gone = %+v, want %+v", snap[1], want)
	}

	vectors := []struct {
		name  string
		scope func(object.Descriptor) bool
		want  map[string]uint64
	}{
		{"no scope", nil, map[string]uint64{
			"full": seqState(3, false), "other": seqState(4, false), "thin": seqState(2, false),
			"evicted": seqState(6, false), "gone": seqState(5, true),
		}},
		{"scope full", scoped("full"), map[string]uint64{"full": seqState(3, false), "gone": seqState(5, true)}},
		{"scope nothing", scoped(), map[string]uint64{"gone": seqState(5, true)}},
		{"scope everything", scoped("full", "other", "thin", "evicted"), map[string]uint64{
			"full": seqState(3, false), "other": seqState(4, false), "gone": seqState(5, true),
		}},
	}
	for _, c := range vectors {
		if got := d.SeqVector(c.scope); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SeqVector, %s = %v, want %v", c.name, got, c.want)
		}
	}
}

// A scoped vector is sized by what the scope keeps, not by the directory:
// a sharded node asks for a few shards' worth of a fleet-sized directory on
// every sync, and a map made for all of it cost the sharded fleet 8 % more
// bytes per decision when this fold was first tried.
func TestScopedSeqVectorSizedByScope(t *testing.T) {
	const n = 4096
	d := NewDirectory(nil)
	for i := 0; i < n; i++ {
		d.Advertise(dirDesc(fmt.Sprintf("n%04d", i), fmt.Sprintf("/g/x/%d", i), 10, "l"), 1)
	}
	one := func(desc object.Descriptor) bool { return desc.Source == "n0007" }
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if got := d.SeqVector(one); len(got) != 1 {
			t.Fatalf("scoped vector has %d entries, want 1", len(got))
		}
	}
	runtime.ReadMemStats(&after)
	// One small map; a map pre-sized for 4096 entries is over 100 KB.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4096 {
		t.Errorf("SeqVector(scope keeping 1 of %d) allocates %d bytes a call, want a map sized for the scope", n, per)
	}
}

// Candidates are gathered label by label, so a source covering two of the
// labels comes up twice: addDistinct keeps it once, in id order, and
// coverSources takes each source's labels unfiltered.
func TestCoverSources(t *testing.T) {
	if got := addDistinct(addDistinct(nil, []string{"b", "c"}), []string{"a", "b"}); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("[b c] then [a b] gathered as %v, want [a b c]", got)
	}
	a := cover.Source{ID: "a", Cost: 8, Covers: []string{"l1"}}
	b := cover.Source{ID: "b", Cost: 10, Covers: []string{"l1", "l2", "x", "y"}}
	pool := func() []cover.Source { return []cover.Source{a, b} }
	if got := coverSources([]string{"l1", "l2"}, pool()); !slices.Equal(got, []string{"b"}) {
		t.Errorf("source covering both labels: got %v, want it alone", got)
	}
	// b's labels outside the universe earn it nothing: 10 for l1 loses to 8.
	if got := coverSources([]string{"l1"}, pool()); !slices.Equal(got, []string{"a"}) {
		t.Errorf("labels outside the universe counted as gain: got %v, want [a]", got)
	}
	// A label the pool cannot cover: everything in it, once each, sorted.
	if got := coverSources([]string{"l1", "l3"}, pool()); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("uncoverable label: got %v, want the whole pool [a b]", got)
	}
	if got := coverSources(nil, nil); got != nil {
		t.Errorf("nothing coverable: got %v, want nil", got)
	}
}
