package athena

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"athena/internal/names"
	"athena/internal/object"
)

func shardDesc(source, name string, labels ...string) object.Descriptor {
	return object.Descriptor{
		Source: source, Name: names.MustParse(name), Size: 100,
		Labels: labels, Validity: time.Minute, ProbTrue: 0.9,
	}
}

func shardAdvert(source, name string, seq uint64, labels ...string) Advertisement {
	return advertisementOf(shardDesc(source, name, labels...), seq)
}

func routerView(n int) []string {
	view := make([]string, n)
	for i := range view {
		view[i] = fmt.Sprintf("n%d", i)
	}
	return view
}

// Before the first refresh the nil snapshot keeps everything; afterwards
// retention follows ownership, with the node's own source always kept.
func TestShardRouterKeep(t *testing.T) {
	sr := NewShardRouter("n0", 8, 2, 16)
	foreign := shardDesc("n9", "/grid/g1/n9", "s09")
	if !sr.Keep(foreign) {
		t.Fatal("nil snapshot must keep everything")
	}
	if _, changed := sr.Refresh(routerView(16)); !changed {
		t.Fatal("first refresh must report a change")
	}
	if !sr.Keep(shardDesc("n0", "/grid/g0/n0", "s00")) {
		t.Error("own source must always be kept")
	}
	// A descriptor is kept iff its name shard or any label shard is owned.
	owned := make(map[int]bool)
	for _, s := range sr.OwnedShards() {
		owned[s] = true
	}
	for i := 0; i < 16; i++ {
		d := shardDesc(fmt.Sprintf("n%d", i+100), fmt.Sprintf("/grid/g%d/x%d", i, i), fmt.Sprintf("s%02d", i))
		want := owned[sr.smap.OfName(d.Name)] || owned[sr.smap.OfKey(d.Labels[0])]
		if got := sr.Keep(d); got != want {
			t.Errorf("Keep(%s) = %v, want %v", d.Name, got, want)
		}
	}
}

// Refresh reports exactly the newly gained shards, and a shrinking view
// reassigns the lost node's shards to survivors.
func TestShardRouterRefreshTracksOwnership(t *testing.T) {
	sr := NewShardRouter("n0", 32, 3, 16)
	added, changed := sr.Refresh(routerView(8))
	if !changed || len(added) != len(sr.OwnedShards()) {
		t.Fatalf("first refresh: added=%v changed=%v owned=%v", added, changed, sr.OwnedShards())
	}
	if _, changed := sr.Refresh(routerView(8)); changed {
		t.Fatal("unchanged view must not report a change")
	}
	// Drop half the fleet: n0 should pick up some of the orphaned shards.
	added, changed = sr.Refresh(routerView(4))
	if !changed || len(added) == 0 {
		t.Fatalf("shrunk view: added=%v changed=%v", added, changed)
	}
	for _, s := range sr.OwnedShards() {
		reps := sr.Replicas(s)
		if len(reps) != 3 {
			t.Fatalf("shard %d replicas = %v, want 3", s, reps)
		}
		found := false
		for _, r := range reps {
			if r == "n0" {
				found = true
			}
		}
		if !found {
			t.Fatalf("owned shard %d replica set %v misses n0", s, reps)
		}
	}
}

// SharedShards is the intersection of two nodes' owned sets — the scope of
// their anti-entropy — and InShards admits exactly the descriptors whose
// name or label shard falls in the given set.
func TestShardRouterSharedAndScope(t *testing.T) {
	sr := NewShardRouter("n0", 16, 3, 16)
	sr.Refresh(routerView(6))
	shared := sr.SharedShards("n1")
	sharedSet := make(map[int]bool)
	for _, s := range shared {
		sharedSet[int(s)] = true
	}
	for _, s := range sr.OwnedShards() {
		if sr.smap.Owns("n1", s, routerView(6), 3) != sharedSet[s] {
			t.Fatalf("SharedShards mismatch at shard %d", s)
		}
	}
	include := sr.InShards(shared)
	for i := 0; i < 12; i++ {
		d := shardDesc(fmt.Sprintf("n%d", i), fmt.Sprintf("/grid/g%d/n%d", i, i), fmt.Sprintf("s%02d", i))
		want := sharedSet[sr.smap.OfName(d.Name)] || sharedSet[sr.smap.OfKey(d.Labels[0])]
		if got := include(d); got != want {
			t.Errorf("InShards(%s) = %v, want %v", d.Name, got, want)
		}
	}
}

// Begin dedups by label, Complete returns the union of waiting queries
// exactly once, and a duplicate reply is rejected.
func TestShardRouterLookupLifecycle(t *testing.T) {
	sr := NewShardRouter("n0", 8, 2, 16)
	sr.Refresh(routerView(6))
	msg, ok := sr.Begin("sx", "q1")
	if !ok || msg == nil {
		t.Fatal("first Begin must start a lookup")
	}
	if msg.From != "n0" || msg.To == "n0" || msg.Label != "sx" {
		t.Fatalf("lookup message = %+v", msg)
	}
	if dup, ok := sr.Begin("sx", "q2"); ok || dup != nil {
		t.Fatal("second Begin for the same label must join, not re-send")
	}
	queries, ok := sr.Complete(msg.Nonce, []Advertisement{
		shardAdvert("n3", "/grid/g3/n3", 1, "sx"),
	})
	if !ok || len(queries) != 2 || queries[0] != "q1" || queries[1] != "q2" {
		t.Fatalf("Complete = %v, %v; want [q1 q2]", queries, ok)
	}
	if _, ok := sr.Complete(msg.Nonce, nil); ok {
		t.Fatal("duplicate reply must be rejected")
	}
	if srcs, ok := sr.CachedSources("sx"); !ok || len(srcs) != 1 || srcs[0] != "n3" {
		t.Fatalf("CachedSources = %v, %v", srcs, ok)
	}
	if d, ok := sr.Desc("n3"); !ok || d.Source != "n3" {
		t.Fatalf("Desc(n3) = %+v, %v", d, ok)
	}
	// Empty replies are not cached: the label gets re-asked next pump.
	msg2, ok := sr.Begin("sy", "q3")
	if !ok {
		t.Fatal("Begin sy")
	}
	if _, ok := sr.Complete(msg2.Nonce, nil); !ok {
		t.Fatal("empty reply still completes the lookup")
	}
	if _, ok := sr.CachedSources("sy"); ok {
		t.Fatal("empty result must not be cached")
	}
}

// Retry walks the replica set and gives up after the try budget; a
// completed lookup stops retrying.
func TestShardRouterRetryWalksReplicas(t *testing.T) {
	sr := NewShardRouter("n0", 8, 3, 16)
	sr.Refresh(routerView(6))
	msg, ok := sr.Begin("sx", "q1")
	if !ok {
		t.Fatal("Begin")
	}
	seen := map[string]bool{msg.To: true}
	tries := 1
	for {
		next, ok := sr.Retry(msg.Nonce)
		if !ok {
			break
		}
		if next.To == "n0" {
			t.Fatal("retry targeted self")
		}
		seen[next.To] = true
		tries++
		if tries > 2*shardLookupMaxTries {
			t.Fatal("retry never exhausted")
		}
	}
	if len(seen) < 2 {
		t.Fatalf("retries never advanced past the primary: %v", seen)
	}
	// The exhausted lookup is gone: a fresh Begin starts over.
	if _, ok := sr.Begin("sx", "q1"); !ok {
		t.Fatal("exhausted lookup must allow a fresh Begin")
	}
}

// SourceDown invalidates cache entries naming the dead source (dropping
// descriptor refcounts) and re-routes pending lookups around it.
func TestShardRouterSourceDown(t *testing.T) {
	sr := NewShardRouter("n0", 8, 3, 16)
	sr.Refresh(routerView(6))
	m1, _ := sr.Begin("sa", "q1")
	sr.Complete(m1.Nonce, []Advertisement{
		shardAdvert("n3", "/grid/g3/n3", 1, "sa"),
		shardAdvert("n4", "/grid/g4/n4", 1, "sa"),
	})
	m2, _ := sr.Begin("sb", "q2")
	sr.Complete(m2.Nonce, []Advertisement{shardAdvert("n4", "/grid/g4/n4", 1, "sb")})

	m3, ok := sr.Begin("sc", "q3")
	if !ok {
		t.Fatal("Begin sc")
	}
	resend := sr.SourceDown(m3.To)
	if len(resend) != 1 || resend[0].To == m3.To || resend[0].Label != "sc" {
		t.Fatalf("SourceDown resend = %+v", resend)
	}

	sr.SourceDown("n4")
	if _, ok := sr.CachedSources("sa"); ok {
		t.Error("cache entry naming the dead source survived")
	}
	if _, ok := sr.CachedSources("sb"); ok {
		t.Error("second cache entry naming the dead source survived")
	}
	if _, ok := sr.Desc("n4"); ok {
		t.Error("dead source descriptor survived")
	}
	if _, ok := sr.Desc("n3"); ok {
		t.Error("descriptor leaked after its last cache entry was invalidated")
	}
}

// The lookup cache evicts its least-recently-touched entry first, and
// descriptor refcounts follow the entries.
func TestShardRouterCacheLRU(t *testing.T) {
	sr := NewShardRouter("n0", 8, 2, 2)
	sr.Refresh(routerView(6))
	install := func(label, src string) {
		m, ok := sr.Begin(label, "q")
		if !ok {
			t.Fatalf("Begin %s", label)
		}
		if _, ok := sr.Complete(m.Nonce, []Advertisement{shardAdvert(src, "/grid/g1/"+src, 1, label)}); !ok {
			t.Fatalf("Complete %s", label)
		}
	}
	install("la", "n3")
	install("lb", "n4")
	if _, ok := sr.CachedSources("la"); !ok { // touch la: lb becomes LRU
		t.Fatal("la missing")
	}
	install("lc", "n5")
	if _, ok := sr.CachedSources("lb"); ok {
		t.Error("lb should have been evicted as LRU")
	}
	if _, ok := sr.CachedSources("la"); !ok {
		t.Error("la evicted despite recent touch")
	}
	if _, ok := sr.Desc("n4"); ok {
		t.Error("evicted entry's descriptor survived")
	}
	if sr.CacheLen() != 2 {
		t.Errorf("CacheLen = %d, want 2", sr.CacheLen())
	}
}

// Placement is memoized per membership view and must follow it: through a
// seeded walk of refreshes — members evicted, rejoining, the same view
// again in another order — the router answers Replicas, Begin's targets,
// SharedShards and OwnedShards exactly as a router built fresh on that
// view does, before and after the memo is warm. An unchanged view reports
// (nil, false), the first refresh a change even when nothing is owned.
// What callers are handed is theirs (writing to it changes no later
// answer), and a pending lookup's targets survive later view changes
// untouched.
func TestShardRouterMemoFollowsView(t *testing.T) {
	const shards, rf = 32, 3
	rng := rand.New(rand.NewSource(24))
	all := routerView(12)
	sr := NewShardRouter("n0", shards, rf, 16)
	if added, changed := NewShardRouter("outsider", shards, rf, 16).Refresh(all); !changed || added != nil {
		t.Fatalf("first refresh of a node that owns nothing = %v, %v; want nil, true", added, changed)
	}
	if _, changed := NewShardRouter("n0", shards, rf, 16).Refresh(nil); !changed {
		t.Fatal("first refresh with an empty view (equal to the zero member list) must still report a change")
	}

	type held struct {
		p       *pendingShardLookup
		targets []string
	}
	var pendings []held
	var last []string
	for step := 0; step < 60; step++ {
		var members []string
		for _, id := range all {
			if id == "n0" || rng.Intn(4) != 0 {
				members = append(members, id)
			}
		}
		if step%5 == 4 {
			members = slices.Clone(last) // the same view, shuffled
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		sorted := slices.Clone(members)
		sort.Strings(sorted)

		added, changed := sr.Refresh(members)
		if slices.Equal(sorted, last) && (added != nil || changed) {
			t.Fatalf("step %d: refresh with the unchanged view %v = %v, %v; want nil, false", step, members, added, changed)
		}
		last = sorted

		fresh := NewShardRouter("n0", shards, rf, 16)
		fresh.Refresh(sorted)
		if got, want := sr.OwnedShards(), fresh.OwnedShards(); !slices.Equal(got, want) {
			t.Fatalf("step %d: OwnedShards = %v, fresh router %v", step, got, want)
		}
		for pass := 0; pass < 2; pass++ { // cold memo, then warm
			for s := 0; s < shards; s++ {
				got, want := sr.Replicas(s), fresh.Replicas(s)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d pass %d: Replicas(%d) = %v, fresh router %v", step, pass, s, got, want)
				}
				for i := range got {
					got[i] = "scribbled"
				}
			}
			for _, peer := range all {
				// The reference is the ranking-free Owns, as SharedShards
				// was written before the memo.
				var want []uint32
				for _, s := range fresh.OwnedShards() {
					if fresh.smap.Owns(peer, s, sorted, rf) {
						want = append(want, uint32(s))
					}
				}
				if got := sr.SharedShards(peer); !slices.Equal(got, want) {
					t.Fatalf("step %d pass %d: SharedShards(%s) = %v, want %v (the owned shards %s owns too)", step, pass, peer, got, want, peer)
				}
			}
		}

		// Lookups for labels on owned and unowned shards alike: the targets
		// are the replica set minus this node, and stay what they were.
		for k := 0; k < 4; k++ {
			label := fmt.Sprintf("step%d-l%d", step, k)
			msg, ok := sr.Begin(label, "q")
			fmsg, fok := fresh.Begin(label, "q")
			if ok != fok {
				t.Fatalf("step %d: Begin(%s) ok = %v, fresh router %v", step, label, ok, fok)
			}
			if !ok {
				continue
			}
			p, fp := sr.pending[label], fresh.pending[label]
			if msg.To != fmsg.To || !slices.Equal(p.targets, fp.targets) || slices.Contains(p.targets, "n0") {
				t.Fatalf("step %d: Begin(%s) targets %v (first %s), fresh router %v (first %s)", step, label, p.targets, msg.To, fp.targets, fmsg.To)
			}
			if got, want := sr.Replicas(p.shardID), fresh.Replicas(p.shardID); !slices.Equal(got, want) {
				t.Fatalf("step %d: Replicas(%d) = %v after a lookup for it, fresh router %v", step, p.shardID, got, want)
			}
			pendings = append(pendings, held{p, slices.Clone(p.targets)})
		}
		for _, h := range pendings {
			if !slices.Equal(h.p.targets, h.targets) {
				t.Fatalf("step %d: pending lookup for %s now targets %v, began with %v", step, h.p.label, h.p.targets, h.targets)
			}
		}
	}
}

// BenchmarkShardRefresh is what a directory version bump costs the shard
// router. Most bumps leave the membership view as it was (a re-advert, a
// refilter), and then placement is not recomputed: ci.sh gates
// unchanged at 0 allocs/op. changed alternates two views of the 81-node
// fleet, one member apart.
func BenchmarkShardRefresh(b *testing.B) {
	full := routerView(81)
	sort.Strings(full)
	for _, c := range []struct {
		name  string
		views [2][]string
	}{
		{"unchanged", [2][]string{full, full}},
		{"changed", [2][]string{full, full[1:]}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sr := NewShardRouter("n40", 400, 3, shardCacheSize)
			sr.Refresh(c.views[1])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr.Refresh(c.views[i%2])
			}
		})
	}
}

// BenchmarkShardLookupBegin is one routed lookup started and answered on a
// view whose placement is already memoized: the pending entry, its waiter
// set, the message and the waiters' ids — no ranking of the 81 members.
// ci.sh gates the allocs/op.
func BenchmarkShardLookupBegin(b *testing.B) {
	sr := NewShardRouter("querier", 400, 3, shardCacheSize)
	sr.Refresh(routerView(81))
	labels := make([]string, 64)
	for i := range labels {
		labels[i] = fmt.Sprintf("seg%02d", i)
	}
	ask := func(i int) {
		msg, ok := sr.Begin(labels[i%len(labels)], "q")
		if !ok {
			b.Fatal("no replica to ask")
		}
		sr.Complete(msg.Nonce, nil)
	}
	for i := range labels {
		ask(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(i)
	}
}
