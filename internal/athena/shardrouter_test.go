package athena

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"athena/internal/boolexpr"
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
	sr := NewShardRouter("n0", 8, 2, 16, nil)
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
	// A descriptor is kept iff any label's shard is owned.
	owned := make(map[int]bool)
	for _, s := range sr.OwnedShards() {
		owned[s] = true
	}
	for _, d := range scopeCases(t, sr, owned) {
		if got, want := sr.Keep(d), anyLabelIn(sr, owned, d.Labels); got != want {
			t.Errorf("Keep(%s %v) = %v, want %v", d.Name, d.Labels, got, want)
		}
	}
}

// anyLabelIn is the scope rule's reference: some label's ShardOf is in
// set.
func anyLabelIn(sr *ShardRouter, set map[int]bool, labels []string) bool {
	for _, l := range labels {
		if set[sr.ShardOf(l)] {
			return true
		}
	}
	return false
}

// scopeCases are descriptors to hold the scope rule to: one label each,
// two labels whose shards differ (one in set, one not, in either order),
// and one whose name's depth-2 prefix hashes to a shard in set while none
// of its labels' shards is — an advert the rule once kept for its name.
func scopeCases(t *testing.T, sr *ShardRouter, set map[int]bool) []object.Descriptor {
	t.Helper()
	var in, out []string // labels whose shard is in set, and not
	for i := 0; len(in) < 4 || len(out) < 4; i++ {
		l := fmt.Sprintf("s%02d", i)
		if set[sr.ShardOf(l)] {
			in = append(in, l)
		} else {
			out = append(out, l)
		}
	}
	var cases []object.Descriptor
	for i := 0; i < 16; i++ {
		cases = append(cases, shardDesc(fmt.Sprintf("n%d", i+100), fmt.Sprintf("/grid/g%d/x%d", i, i), fmt.Sprintf("s%02d", i)))
	}
	for i := 0; i < 4; i++ {
		cases = append(cases,
			shardDesc("m"+in[i], "/multi/a/"+in[i], out[i], in[i]),
			shardDesc("m"+out[i], "/multi/b/"+out[i], in[i], out[(i+1)%4]),
			shardDesc("o"+out[i], "/multi/c/"+out[i], out[i], out[(i+1)%4]))
	}
	for i := 0; ; i++ {
		name := names.MustParse(fmt.Sprintf("/named/p%d/x", i))
		if set[sr.smap.OfKey(name.Prefix(2).String())] {
			return append(cases, shardDesc("named", name.String(), out[0], out[1]))
		}
	}
}

// Refresh reports exactly the shards gained since the last refresh — none
// at the first, when the nil snapshot had kept every payload — and a
// shrinking view reassigns the lost node's shards to survivors.
func TestShardRouterRefreshTracksOwnership(t *testing.T) {
	sr := NewShardRouter("n0", 32, 3, 16, nil)
	added, changed := sr.Refresh(routerView(8))
	if !changed || len(added) != 0 || len(sr.OwnedShards()) == 0 {
		t.Fatalf("first refresh: added=%v changed=%v owned=%v; want none added, a change, some owned", added, changed, sr.OwnedShards())
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
// their anti-entropy — and InShards admits exactly the descriptors with a
// label whose shard falls in the given set.
func TestShardRouterSharedAndScope(t *testing.T) {
	sr := NewShardRouter("n0", 16, 3, 16, nil)
	sr.Refresh(routerView(6))
	shared := sr.SharedShards("n1")
	sharedSet := make(map[int]bool)
	for _, s := range shared {
		sharedSet[int(s)] = true
	}
	for _, s := range sr.OwnedShards() {
		if slices.Contains(sr.smap.Replicas(s, routerView(6), 3), "n1") != sharedSet[s] {
			t.Fatalf("SharedShards mismatch at shard %d", s)
		}
	}
	include := sr.InShards(shared)
	for _, d := range scopeCases(t, sr, sharedSet) {
		if got, want := include(d), anyLabelIn(sr, sharedSet, d.Labels); got != want {
			t.Errorf("InShards(%s %v) = %v, want %v", d.Name, d.Labels, got, want)
		}
	}
}

// Begin dedups by label, Complete returns the union of waiting queries
// exactly once, and a duplicate reply is rejected.
func TestShardRouterLookupLifecycle(t *testing.T) {
	sr := NewShardRouter("n0", 8, 2, 16, nil)
	sr.Refresh(routerView(6))
	msg, _ := sr.Begin("sx", "q1", nil)
	if msg == nil {
		t.Fatal("first Begin must start a lookup")
	}
	if msg.From != "n0" || msg.To == "n0" || msg.Shard != uint32(sr.ShardOf("sx")) {
		t.Fatalf("lookup message = %+v", msg)
	}
	if dup, p := sr.Begin("sx", "q2", nil); p != nil || dup != nil {
		t.Fatal("second Begin for the same label must join, not re-send")
	}
	queries, ok := completeWith(sr, msg, []Advertisement{
		shardAdvert("n3", "/grid/g3/n3", 1, "sx"),
	}, time.Time{})
	if !ok || len(queries) != 2 || queries[0] != "q1" || queries[1] != "q2" {
		t.Fatalf("Complete = %v, %v; want [q1 q2]", queries, ok)
	}
	if _, ok := completeWith(sr, msg, nil, time.Time{}); ok {
		t.Fatal("duplicate reply must be rejected")
	}
	if srcs, ok := sr.CachedSources("sx", time.Time{}); !ok || len(srcs) != 1 || srcs[0] != "n3" {
		t.Fatalf("CachedSources = %v, %v", srcs, ok)
	}
	if d, ok := sr.Desc("n3"); !ok || d.Source != "n3" {
		t.Fatalf("Desc(n3) = %+v, %v", d, ok)
	}
	// An empty reply is a negative entry: cached and empty until the
	// instant Complete was given, a miss from then on, so the label is
	// asked again; the next answer replaces it.
	msg2, _ := sr.Begin("sy", "q3", nil)
	if msg2 == nil {
		t.Fatal("Begin sy")
	}
	until := tBase.Add(2 * time.Second)
	if _, ok := completeWith(sr, msg2, nil, until); !ok {
		t.Fatal("empty reply still completes the lookup")
	}
	if srcs, ok := sr.CachedSources("sy", until.Add(-time.Nanosecond)); !ok || srcs != nil {
		t.Fatalf("CachedSources(sy) before the negative entry lapses = %v, %v; want nil, true", srcs, ok)
	}
	if _, ok := sr.CachedSources("sy", until); ok {
		t.Fatal("a lapsed negative entry must be a miss")
	}
	msg3, _ := sr.Begin("sy", "q3", nil)
	if msg3 == nil {
		t.Fatal("Begin sy after the negative entry lapsed")
	}
	completeWith(sr, msg3, []Advertisement{shardAdvert("n4", "/grid/g4/n4", 1, "sy")}, until)
	if srcs, ok := sr.CachedSources("sy", until.Add(time.Hour)); !ok || !slices.Equal(srcs, []string{"n4"}) {
		t.Fatalf("CachedSources(sy) after coverage arrived = %v, %v; want [n4]", srcs, ok)
	}
	if n := sr.CacheLen(); n != 2 {
		t.Fatalf("CacheLen = %d, want 2: the answer replaces the negative entry", n)
	}
}

// Retry walks the replica set and gives up after the try budget, handing
// back the lookup's waiters; a completed lookup stops retrying.
func TestShardRouterRetryWalksReplicas(t *testing.T) {
	sr := NewShardRouter("n0", 8, 3, 16, nil)
	sr.Refresh(routerView(6))
	msg, _ := sr.Begin("sx", "q1", nil)
	if msg == nil {
		t.Fatal("Begin")
	}
	sr.Begin("sx", "q0", nil)
	seen := map[string]bool{msg.To: true}
	tries := 1
	for {
		next, abandoned := sr.Retry(msg.Nonce)
		if next == nil {
			if !slices.Equal(abandoned, []string{"q0", "q1"}) {
				t.Fatalf("give-up handed back %v, want [q0 q1]", abandoned)
			}
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
	if tries != shardLookupMaxTries {
		t.Fatalf("%d sends before the give-up, want %d", tries, shardLookupMaxTries)
	}
	if sr.AnyPending([]string{"sx"}) {
		t.Fatal("an exhausted lookup is still pending")
	}
	if msg, abandoned := sr.Retry(msg.Nonce); msg != nil || abandoned != nil {
		t.Fatalf("a second Retry after the give-up = %+v, %v; want nothing", msg, abandoned)
	}
	// The exhausted lookup is gone: a fresh Begin starts over.
	if msg, _ := sr.Begin("sx", "q1", nil); msg == nil {
		t.Fatal("exhausted lookup must allow a fresh Begin")
	}
}

// lineRouter routes along a line of nodes: NextHop steps one place toward
// the destination, so a route's length is the distance along the line. It
// has no route to or from a node off the line.
type lineRouter []string

func (l lineRouter) NextHop(from, to string) (string, error) {
	i, j := slices.Index(l, from), slices.Index(l, to)
	switch {
	case i < 0 || j < 0:
		return "", fmt.Errorf("%s -> %s: off the line", from, to)
	case i < j:
		return l[i+1], nil
	case i > j:
		return l[i-1], nil
	}
	return to, nil
}

// starRouter routes through its hub: the hub is one hop from every node,
// any two others two hops apart.
type starRouter string

func (hub starRouter) NextHop(from, to string) (string, error) {
	if from == string(hub) || to == string(hub) {
		return to, nil
	}
	return string(hub), nil
}

// tryOrder starts a lookup for label on rt and follows it through Retry
// once around its replica set: the order it asks them in.
func tryOrder(t *testing.T, sr *ShardRouter, label string, rt Router) []string {
	t.Helper()
	msg, p := sr.Begin(label, "q", rt)
	if msg == nil {
		t.Fatalf("Begin(%s) started no lookup", label)
	}
	asked := []string{msg.To}
	for range p.targets[1:] {
		next, _ := sr.Retry(msg.Nonce)
		asked = append(asked, next.To)
	}
	completeWith(sr, msg, nil, time.Time{})
	return asked
}

// A lookup asks its replicas nearest first by the router's route lengths,
// ties in rendezvous order; when the router cannot give one replica's
// length — off its routes, or a StaticRouter asked past its first hop —
// all of them keep rendezvous order, and so do a StaticRouter's one-hop
// routes, which all tie.
func TestShardRouterAsksNearestReplicaFirst(t *testing.T) {
	sr := NewShardRouter("me", 8, 3, 16, nil)
	view := append(routerView(6), "me")
	sr.Refresh(view)
	const label = "sx"
	r := sr.Replicas(sr.smap.OfKey(label))
	if len(r) != 3 || slices.Contains(r, "me") {
		t.Fatalf("replicas of %s = %v; want three others", label, r)
	}
	others := slices.DeleteFunc(slices.Clone(view), func(id string) bool { return id == "me" || slices.Contains(r, id) })
	line := func(ids ...string) lineRouter { return append(ids, others...) }
	for _, c := range []struct {
		name string
		rt   Router
		want []string
	}{
		{"farthest primary", line("me", r[2], r[1], r[0]), []string{r[2], r[1], r[0]}},
		{"tie keeps rendezvous order", line(r[0], "x", "me", r[2], r[1]), []string{r[2], r[0], r[1]}},
		{"one replica off the routes", append(lineRouter{"me", r[2], r[0]}, others...), r},
		{"no router", nil, r},
		{"static, one hop each", &StaticRouter{Self: "me"}, r},
		{"static, one multi-hop", &StaticRouter{Self: "me", NextHops: map[string]string{r[0]: r[2]}}, r},
	} {
		if got := tryOrder(t, sr, label, c.rt); !slices.Equal(got, c.want) {
			t.Errorf("%s: asked %v, want %v", c.name, got, c.want)
		}
	}
	if n, ok := routeLen(line("me", r[2], r[1], r[0]), "me", r[0]); !ok || n != 3 {
		t.Errorf("routeLen along the line = %d, %v; want 3, true", n, ok)
	}
}

// Retry and SourceDown walk on in the lookup's distance order, and the
// backfill asks the nearest co-replica.
func TestShardRouterWalksOnInDistanceOrder(t *testing.T) {
	sr := NewShardRouter("me", 8, 3, 16, nil)
	sr.Refresh(append(routerView(6), "me"))
	const label = "sx"
	s := sr.smap.OfKey(label)
	r := sr.Replicas(s)
	rt := lineRouter{"me", r[2], r[1], r[0]}
	msg, _ := sr.Begin(label, "q", rt)
	if msg.To != r[2] {
		t.Fatalf("first try %s, want the nearest %s", msg.To, r[2])
	}
	resend, _ := sr.SourceDown(r[2])
	if len(resend) != 1 || resend[0].To != r[1] {
		t.Fatalf("SourceDown(%s) re-sent %+v; want one lookup to %s", r[2], resend, r[1])
	}
	if next, _ := sr.Retry(msg.Nonce); next.To != r[0] {
		t.Fatalf("Retry after SourceDown asked %s, want %s", next.To, r[0])
	}
	// From the last of the order, a re-route wraps to its first.
	if resend, _ := sr.SourceDown(r[0]); len(resend) != 1 || resend[0].To != r[2] {
		t.Fatalf("SourceDown(%s) re-sent %+v; want one lookup to %s", r[0], resend, r[2])
	}
	if got := sr.Nearest(s, rt); got != r[2] {
		t.Fatalf("Nearest = %s, want %s", got, r[2])
	}
	if got := sr.Nearest(s, nil); got != r[0] {
		t.Fatalf("Nearest without routes = %s, want the primary %s", got, r[0])
	}
}

// SourceDown invalidates cache entries naming the dead source (dropping
// descriptor refcounts), re-routes pending lookups around it, and hands
// back, each once, the waiters of lookups with no replica left.
func TestShardRouterSourceDown(t *testing.T) {
	sr := NewShardRouter("n0", 8, 3, 16, nil)
	sr.Refresh(routerView(6))
	m1, _ := sr.Begin("sa", "q1", nil)
	completeWith(sr, m1, []Advertisement{
		shardAdvert("n3", "/grid/g3/n3", 1, "sa"),
		shardAdvert("n4", "/grid/g4/n4", 1, "sa"),
	}, time.Time{})
	m2, _ := sr.Begin("sb", "q2", nil)
	completeWith(sr, m2, []Advertisement{shardAdvert("n4", "/grid/g4/n4", 1, "sb")}, time.Time{})

	m3, _ := sr.Begin("sc", "q3", nil)
	if m3 == nil {
		t.Fatal("Begin sc")
	}
	resend, abandoned := sr.SourceDown(m3.To)
	if len(resend) != 1 || resend[0].To == m3.To || resend[0].Shard != uint32(sr.ShardOf("sc")) || abandoned != nil {
		t.Fatalf("SourceDown resend = %+v, abandoned %v", resend, abandoned)
	}

	sr.SourceDown("n4")
	if _, ok := sr.CachedSources("sa", time.Time{}); ok {
		t.Error("cache entry naming the dead source survived")
	}
	if _, ok := sr.CachedSources("sb", time.Time{}); ok {
		t.Error("second cache entry naming the dead source survived")
	}
	if _, ok := sr.Desc("n4"); ok {
		t.Error("dead source descriptor survived")
	}
	if _, ok := sr.Desc("n3"); ok {
		t.Error("descriptor leaked after its last cache entry was invalidated")
	}

	// One replica a shard, on a two-node view: every lookup has the one
	// target, and losing it abandons the lookup.
	solo := NewShardRouter("n0", 8, 1, 16, nil)
	solo.Refresh(routerView(2))
	var asked []string
	for i := 0; len(asked) < 2; i++ {
		l := fmt.Sprintf("l%d", i)
		if msg, _ := solo.Begin(l, "q2", nil); msg != nil {
			solo.Begin(l, "q1", nil)
			asked = append(asked, l)
		}
	}
	resend, abandoned = solo.SourceDown("n1")
	if resend != nil || !slices.Equal(abandoned, []string{"q1", "q2"}) {
		t.Fatalf("SourceDown of the only replica = %+v, abandoned %v; want nothing to re-send and [q1 q2]", resend, abandoned)
	}
	if solo.AnyPending(asked) {
		t.Fatal("an abandoned lookup is still pending")
	}
}

// The lookup cache evicts its least-recently-touched entry first, and
// descriptor refcounts follow the entries.
func TestShardRouterCacheLRU(t *testing.T) {
	sr := NewShardRouter("n0", 8, 2, 2, nil)
	sr.Refresh(routerView(6))
	install := func(label, src string) {
		m, _ := sr.Begin(label, "q", nil)
		if m == nil {
			t.Fatalf("Begin %s", label)
		}
		if _, ok := completeWith(sr, m, []Advertisement{shardAdvert(src, "/grid/g1/"+src, 1, label)}, time.Time{}); !ok {
			t.Fatalf("Complete %s", label)
		}
	}
	install("la", "n3")
	install("lb", "n4")
	if _, ok := sr.CachedSources("la", time.Time{}); !ok { // touch la: lb becomes LRU
		t.Fatal("la missing")
	}
	install("lc", "n5")
	if _, ok := sr.CachedSources("lb", time.Time{}); ok {
		t.Error("lb should have been evicted as LRU")
	}
	if _, ok := sr.CachedSources("la", time.Time{}); !ok {
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
	sr := NewShardRouter("n0", shards, rf, 16, nil)
	if added, changed := NewShardRouter("outsider", shards, rf, 16, nil).Refresh(all); !changed || added != nil {
		t.Fatalf("first refresh of a node that owns nothing = %v, %v; want nil, true", added, changed)
	}
	if _, changed := NewShardRouter("n0", shards, rf, 16, nil).Refresh(nil); !changed {
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

		fresh := NewShardRouter("n0", shards, rf, 16, nil)
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
				// The reference is Map.Replicas, as SharedShards was
				// written before the placement.
				var want []uint32
				for _, s := range fresh.OwnedShards() {
					if slices.Contains(fresh.smap.Replicas(s, sorted, rf), peer) {
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
			if sr.pending[sr.ShardOf(label)] != nil {
				continue // its shard's lookup, begun at an earlier step, is still pending
			}
			msg, _ := sr.Begin(label, "q", nil)
			fmsg, _ := fresh.Begin(label, "q", nil)
			if (msg == nil) != (fmsg == nil) {
				t.Fatalf("step %d: Begin(%s) = %+v, fresh router %+v", step, label, msg, fmsg)
			}
			if msg == nil {
				continue
			}
			p, fp := sr.pending[sr.ShardOf(label)], fresh.pending[fresh.ShardOf(label)]
			if msg.To != fmsg.To || !slices.Equal(p.targets, fp.targets) || slices.Contains(p.targets, "n0") {
				t.Fatalf("step %d: Begin(%s) targets %v (first %s), fresh router %v (first %s)", step, label, p.targets, msg.To, fp.targets, fmsg.To)
			}
			if s := sr.ShardOf(label); !slices.Equal(sr.Replicas(s), fresh.Replicas(s)) {
				t.Fatalf("step %d: Replicas(%d) = %v after a lookup for it, fresh router %v", step, s, sr.Replicas(s), fresh.Replicas(s))
			}
			pendings = append(pendings, held{p, slices.Clone(p.targets)})
		}
		for _, h := range pendings {
			if !slices.Equal(h.p.targets, h.targets) {
				t.Fatalf("step %d: pending lookup of shard %d now targets %v, began with %v", step, h.p.shard, h.p.targets, h.targets)
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
			sr := NewShardRouter("n40", 400, 3, shardCacheSize, nil)
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
// set, the message and the waiters' ids — no ranking of the 81 members,
// and the replicas ordered by route length (through a star's hub) in the
// pending entry itself.
// ci.sh gates the allocs/op.
func BenchmarkShardLookupBegin(b *testing.B) {
	sr := NewShardRouter("querier", 400, 3, shardCacheSize, nil)
	view := routerView(81)
	sr.Refresh(view)
	var rt Router = starRouter("n40")
	labels := make([]string, 64)
	for i := range labels {
		labels[i] = fmt.Sprintf("seg%02d", i)
	}
	ask := func(i int) {
		msg, _ := sr.Begin(labels[i%len(labels)], "q", rt)
		if msg == nil {
			b.Fatal("no replica to ask")
		}
		completeWith(sr, msg, nil, time.Time{})
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

// TestShardRouterWaitersMatchMapReference holds a lookup's waiter slice to
// the map it replaced: queries joined in any order, with repeats and with
// id-less joins, come back sorted and each once — what listing the map
// and sorting gave — from Complete and from Retry's give-up. While the
// lookup is pending, pendingWith lists it exactly for the live ids that
// joined it.
func TestShardRouterWaitersMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		sr := NewShardRouter("n0", 8, 2, 16, nil)
		sr.Refresh(routerView(6))
		label := fmt.Sprintf("l%d", trial)
		ref := make(map[string]bool)
		var msg *ShardLookup
		for j := 0; j < 1+rng.Intn(10); j++ {
			id := ""
			if rng.Intn(6) > 0 {
				id = fmt.Sprintf("q%d", rng.Intn(7))
				ref[id] = true
			}
			if m, _ := sr.Begin(label, id, nil); m != nil {
				msg = m
			}
		}
		if msg == nil {
			t.Fatalf("trial %d: no Begin started a lookup", trial)
		}
		want := make([]string, 0, len(ref))
		for id := range ref {
			want = append(want, id)
		}
		sort.Strings(want)
		for i := 0; i < 7; i++ {
			id := fmt.Sprintf("q%d", i)
			got := sr.pendingWith(func(w string) bool { return w == id })
			if wantPending := ref[id]; wantPending != slices.Equal(got, []string{label}) || (!wantPending && got != nil) {
				t.Fatalf("trial %d: pendingWith(%s) = %v, joined %v", trial, id, got, ref[id])
			}
		}
		var got []string
		if trial%2 == 0 {
			got, _ = completeWith(sr, msg, nil, time.Time{})
		} else {
			for m := msg; m != nil; {
				m, got = sr.Retry(msg.Nonce)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: waiters %v, the map's %v", trial, got, want)
		}
		if sr.pendingWith(func(string) bool { return true }) != nil {
			t.Fatalf("trial %d: the lookup is still pending", trial)
		}
	}
}

// TestShardRouterCompleteKeepsNewestDescriptor: two lookups name the same
// source and their replies land out of order, the newer advert first. The
// older advert leaves the held descriptor be, though its source still
// counts as a candidate of its label. An advert equal to the held one is
// not copied again (the held labels stay the ones held), and a newer one
// replaces it.
func TestShardRouterCompleteKeepsNewestDescriptor(t *testing.T) {
	sr := NewShardRouter("n0", 8, 2, 16, nil)
	sr.Refresh(routerView(6))
	ma, _ := sr.Begin("sa", "q1", nil)
	mb, _ := sr.Begin("sb", "q2", nil)
	if ma == nil || mb == nil {
		t.Fatal("Begin")
	}
	completeWith(sr, mb, []Advertisement{shardAdvert("n3", "/grid/g3/v5", 5, "sa", "sb")}, time.Time{})
	completeWith(sr, ma, []Advertisement{shardAdvert("n3", "/grid/g3/v4", 4, "sa", "sb")}, time.Time{})
	held, ok := sr.Desc("n3")
	if !ok || held.Name.String() != "/grid/g3/v5" {
		t.Fatalf("Desc(n3) = %v after the older reply landed, want the seq-5 record /grid/g3/v5", held.Name)
	}
	if srcs, ok := sr.CachedSources("sa", time.Time{}); !ok || !slices.Equal(srcs, []string{"n3"}) {
		t.Fatalf("CachedSources(sa) = %v, %v; want [n3]", srcs, ok)
	}

	mc, _ := sr.Begin("sa", "q3", nil)
	completeWith(sr, mc, []Advertisement{shardAdvert("n3", "/grid/g3/v5", 5, "sa", "sb")}, time.Time{})
	if again, _ := sr.Desc("n3"); &again.Labels[0] != &held.Labels[0] {
		t.Fatal("an advert equal to the held descriptor was copied again")
	}

	md, _ := sr.Begin("sa", "q4", nil)
	completeWith(sr, md, []Advertisement{shardAdvert("n3", "/grid/g3/v6", 6, "sa")}, time.Time{})
	if newer, _ := sr.Desc("n3"); newer.Name.String() != "/grid/g3/v6" || !slices.Equal(newer.Labels, []string{"sa"}) {
		t.Fatalf("Desc(n3) = %+v after a newer reply, want the seq-6 record", newer)
	}
}

// completeWith answers the lookup m with adverts the way a replica does:
// the reply lists the labels of m's shard the adverts cover, sorted.
func completeWith(sr *ShardRouter, m *ShardLookup, adverts []Advertisement, until time.Time) ([]string, bool) {
	var labels []string
	for _, a := range adverts {
		for _, l := range a.Labels {
			if sr.ShardOf(l) == int(m.Shard) && !slices.Contains(labels, l) {
				labels = append(labels, l)
			}
		}
	}
	slices.Sort(labels)
	return sr.Complete(m.Nonce, labels, adverts, until)
}

// regionRouter is a router over routerView(6) whose labels ra1..ra4 share
// region 1 and rb1 has region 2, on a shard of its own; "flat" has none.
func regionRouter(t *testing.T) *ShardRouter {
	t.Helper()
	regions := boolexpr.MetaTable{
		"ra1": {Region: 1}, "ra2": {Region: 1}, "ra3": {Region: 1}, "ra4": {Region: 1},
		"rb1": {Region: 2},
	}
	sr := NewShardRouter("n0", 64, 2, 64, regions)
	sr.Refresh(routerView(6))
	if sr.ShardOf("ra1") != sr.smap.OfRegion(1) || sr.ShardOf("flat") != sr.smap.OfKey("flat") {
		t.Fatal("ShardOf does not place by region, then by the flat label")
	}
	if sr.ShardOf("ra1") == sr.ShardOf("rb1") {
		t.Fatal("fixture: regions 1 and 2 share a shard")
	}
	return sr
}

// One lookup is in flight per shard, however many of its labels and
// queries ask: the first Begin sends, every later one joins its labels
// and queries to the record.
func TestShardRouterOneLookupPerShard(t *testing.T) {
	sr := regionRouter(t)
	msg, p := sr.Begin("ra1", "q1", nil)
	if msg == nil || msg.Shard != uint32(sr.ShardOf("ra1")) {
		t.Fatalf("first Begin = %+v, want a lookup of ra1's shard", msg)
	}
	for _, c := range []struct{ label, query string }{{"ra2", "q1"}, {"ra3", "q2"}, {"ra1", "q3"}, {"ra2", ""}} {
		if m, joined := sr.Begin(c.label, c.query, nil); m != nil || joined != nil {
			t.Fatalf("Begin(%s, %s) sent %+v while the shard's lookup is in flight", c.label, c.query, m)
		}
	}
	if !slices.Equal(p.asked, []string{"ra1", "ra2", "ra3"}) || !slices.Equal(p.waiters(), []string{"q1", "q2", "q3"}) {
		t.Fatalf("record asks %v for %v, want [ra1 ra2 ra3] for [q1 q2 q3]", p.asked, p.waiters())
	}
	if other, _ := sr.Begin("rb1", "q1", nil); other == nil || other.Nonce == msg.Nonce {
		t.Fatal("a label of another region must start a lookup of its own")
	}
	if !sr.AnyPending([]string{"ra3"}) || sr.AnyPending([]string{"ra4"}) {
		t.Fatal("AnyPending: ra3 was asked of the pending lookup and must be pending; ra4 was not asked and must not be")
	}
}

// A reply installs every label of its shard it lists, each with the
// sources of the adverts that cover it, and a negative entry for each
// asked label it does not list; the waiters come back once.
func TestShardRouterReplyFillsRegion(t *testing.T) {
	sr := regionRouter(t)
	msg, _ := sr.Begin("ra1", "q1", nil)
	sr.Begin("ra4", "q2", nil)
	until := tBase.Add(2 * time.Second)
	adverts := []Advertisement{
		shardAdvert("n3", "/grid/g3/n3", 1, "ra1", "ra2", "rb1"),
		shardAdvert("n4", "/grid/g4/n4", 1, "ra2", "ra3"),
	}
	queries, ok := sr.Complete(msg.Nonce, []string{"ra1", "ra2", "ra3"}, adverts, until)
	if !ok || !slices.Equal(queries, []string{"q1", "q2"}) {
		t.Fatalf("Complete = %v, %v; want [q1 q2], true", queries, ok)
	}
	for label, want := range map[string][]string{"ra1": {"n3"}, "ra2": {"n3", "n4"}, "ra3": {"n4"}} {
		if srcs, ok := sr.CachedSources(label, until.Add(time.Hour)); !ok || !slices.Equal(srcs, want) {
			t.Errorf("CachedSources(%s) = %v, %v; want %v", label, srcs, ok, want)
		}
	}
	if srcs, ok := sr.CachedSources("ra4", until.Add(-time.Nanosecond)); !ok || srcs != nil {
		t.Errorf("asked, unlisted ra4: CachedSources = %v, %v; want a negative entry", srcs, ok)
	}
	if _, ok := sr.CachedSources("ra4", until); ok {
		t.Error("ra4's negative entry must lapse at emptyUntil")
	}
	if _, ok := sr.CachedSources("rb1", time.Time{}); ok {
		t.Error("rb1 is another shard's: a reply about ra1's shard must not install it")
	}
	if sr.AnyPending([]string{"ra1", "ra4"}) {
		t.Error("the answered lookup is still pending")
	}
}

// Retry's give-up, SourceDown with no replica left and the abandonment
// they share hand back every waiter of the shard's record, each once.
func TestShardRouterAbandonHandsBackShardWaiters(t *testing.T) {
	sr := regionRouter(t)
	msg, _ := sr.Begin("ra1", "q2", nil)
	sr.Begin("ra2", "q1", nil)
	sr.Begin("ra3", "q2", nil)
	var abandoned []string
	for next := msg; next != nil; {
		next, abandoned = sr.Retry(msg.Nonce)
	}
	if !slices.Equal(abandoned, []string{"q1", "q2"}) {
		t.Fatalf("Retry's give-up handed back %v, want [q1 q2]", abandoned)
	}

	// A querier outside a two-node view, one replica a shard: the lookup
	// has the one target, and losing it abandons the lookup.
	solo := NewShardRouter("querier", 64, 1, 64, boolexpr.MetaTable{"ra1": {Region: 1}, "ra2": {Region: 1}})
	solo.Refresh(routerView(2))
	m, _ := solo.Begin("ra1", "q3", nil)
	solo.Begin("ra2", "q1", nil)
	resend, gone := solo.SourceDown(m.To)
	if resend != nil || !slices.Equal(gone, []string{"q1", "q3"}) {
		t.Fatalf("SourceDown of the only replica = %+v, %v; want nothing to re-send and [q1 q3]", resend, gone)
	}
	if solo.AnyPending([]string{"ra1", "ra2"}) {
		t.Fatal("the abandoned lookup is still pending")
	}
}

// A reply for no pending lookup, one listing a label outside the shard it
// was asked about or its labels out of order, or one carrying a seq no
// record may take, is refused; a refused
// reply leaves the lookup pending, and the node counts it in
// ShardRepliesDropped.
func TestShardRouterRefusesForeignReplies(t *testing.T) {
	sr := regionRouter(t)
	msg, _ := sr.Begin("ra1", "q1", nil)
	if _, ok := sr.Complete(msg.Nonce+99, []string{"ra1"}, nil, time.Time{}); ok {
		t.Fatal("a reply for an unknown nonce completed")
	}
	if _, ok := sr.Complete(msg.Nonce, []string{"ra1", "rb1"}, []Advertisement{shardAdvert("n3", "/grid/g3/n3", 1, "ra1", "rb1")}, time.Time{}); ok {
		t.Fatal("a reply listing another shard's label completed")
	}
	if _, ok := sr.Complete(msg.Nonce, []string{"ra2", "ra1"}, nil, time.Time{}); ok {
		t.Fatal("a reply listing its labels out of order completed")
	}
	if _, ok := sr.Complete(msg.Nonce, []string{"ra1"}, []Advertisement{shardAdvert("n3", "/grid/g3/n3", seqLimit, "ra1")}, time.Time{}); ok {
		t.Fatal("a reply carrying a seq no record may take completed")
	}
	if !sr.AnyPending([]string{"ra1"}) {
		t.Fatal("a refused reply completed the lookup")
	}
	if _, ok := sr.CachedSources("rb1", time.Time{}); ok {
		t.Fatal("a refused reply installed a label")
	}
	if _, ok := sr.Complete(msg.Nonce, []string{"ra1"}, nil, time.Time{}); !ok {
		t.Fatal("the honest reply was refused after the foreign one")
	}

	n, _ := newDispatchNode(t, func(c *Config) {
		c.HeartbeatInterval, c.GossipFanout, c.Shards, c.ShardReplicas = time.Second, 2, 4, 2
	})
	n.mu.Lock()
	n.handleShardLookupReply(&ShardLookupReply{From: "c", To: n.id, Nonce: 12345})
	n.mu.Unlock()
	if got := n.Stats().ShardRepliesDropped; got != 1 {
		t.Fatalf("ShardRepliesDropped = %d after a reply for no lookup, want 1", got)
	}
}

// A router's digest for each peer follows its view: after any refresh it
// equals a fresh router's on the same view and directory, also when the
// directory did not move and this node's own shards stayed what they were
// (a co-replica changed).
func TestShardRouterDigestFollowsView(t *testing.T) {
	const shards, rf = 16, 2
	all := routerView(12)
	descs := make([]object.Descriptor, len(all))
	for i, id := range all {
		descs[i] = shardDesc(id, fmt.Sprintf("/grid/g%d/%s", i, id), fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d", (i+1)%len(all)))
	}
	dir := NewDirectory(descs)
	sr := NewShardRouter("n0", shards, rf, 16, nil)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 60; step++ {
		view := []string{"n0"}
		for _, id := range all[1:] {
			if rng.Intn(4) > 0 {
				view = append(view, id)
			}
		}
		for _, peer := range all {
			sr.Digest(peer, dir) // digests cached under the last placement
		}
		sr.Refresh(view)
		fresh := NewShardRouter("n0", shards, rf, 16, nil)
		fresh.Refresh(view)
		for _, peer := range all {
			if got, want := sr.Digest(peer, dir), fresh.Digest(peer, dir); got != want {
				t.Fatalf("step %d: Digest(%s) = %x, a fresh router's %x", step, peer, got, want)
			}
		}
	}
}
