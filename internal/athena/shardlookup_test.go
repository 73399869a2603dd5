package athena

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/object"
	"athena/internal/trust"
)

// This file holds the sharded query path's lookup lifecycle as the node
// sees it: when a waiting query is re-selected (once, when none of its
// labels has a lookup pending), and how often a label nobody covers is
// asked (once per two protocol periods). The rigs are buildShardRig's
// 24-node fleet, settled for 10 s, with n0 as the origin.

// routedLabels returns k labels from name(0), name(1), ... that origin
// neither owns nor sources, each with a home shard of its own: k distinct
// routed lookups. Call it once the rig has settled (ownership is refreshed).
func routedLabels(t *testing.T, origin *Node, k int, name func(i int) string) []string {
	t.Helper()
	origin.mu.Lock()
	defer origin.mu.Unlock()
	sr := origin.shard.router
	shards := map[int]bool{}
	var out []string
	for i := 0; i < 64; i++ {
		l, s := name(i), sr.smap.OfKey(name(i))
		if sr.OwnsLabel(l) || shards[s] || slices.Contains(origin.desc.Labels, l) {
			continue
		}
		shards[s] = true
		if out = append(out, l); len(out) == k {
			return out
		}
	}
	t.Fatalf("%s routes only %v, want %d labels", origin.id, out, k)
	return nil
}

// rigLabel and nobodyLabel name a label buildShardRig's fleet covers (one
// node each, 24 of them) and one nobody covers.
func rigLabel(i int) string    { return fmt.Sprintf("s%02d", i%24) }
func nobodyLabel(i int) string { return fmt.Sprintf("nobody%d", i) }

// dropLookupReplies puts a filter between the network and the node that
// discards every ShardLookupReply addressed to it: its lookups stay
// pending until they give up.
func dropLookupReplies(t *testing.T, r *shardRig, id string) {
	t.Helper()
	node := r.nodes[id]
	err := r.net.SetHandler(id, func(from string, size int64, payload any) {
		if m, ok := payload.(*ShardLookupReply); ok && m.To == id {
			return
		}
		node.handleMessage(from, size, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// issueAt runs the rig on to at, issues the conjunction of labels at node and
// returns the query.
func issueAt(t *testing.T, r *shardRig, node *Node, at, deadline time.Duration, labels ...string) *localQuery {
	t.Helper()
	r.run(t, at)
	id, err := node.QueryInit(boolexpr.ToDNF(boolexpr.MustParse(strings.Join(labels, " & "))), deadline)
	if err != nil {
		t.Fatal(err)
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	return node.queries[id]
}

// A query over four routed labels starts four lookups and is re-selected
// once, when the last reply lands, not once per reply; that one cover is
// the full replica's over the whole directory, and the query resolves.
func TestLookupRepliesReselectOnce(t *testing.T) {
	const k = 4
	r := buildShardRig(t, 24, 16, 3, 9)
	var descs []object.Descriptor
	for _, id := range r.ids {
		descs = append(descs, *r.nodes[id].desc)
	}
	full := NewDirectory(descs)
	origin := r.nodes["n0"]
	r.run(t, 10*time.Second)
	labels := routedLabels(t, origin, k, rigLabel)
	q := issueAt(t, r, origin, 10*time.Second, 30*time.Second, labels...)
	if got := origin.Stats().ShardLookups; got != k {
		t.Fatalf("QueryInit started %d lookups, want %d", got, k)
	}
	r.run(t, 45*time.Second)

	st := origin.Stats()
	if st.ShardReselects != 1 {
		t.Errorf("ShardReselects = %d after %d replies, want 1", st.ShardReselects, k)
	}
	if st.ShardLookups != k {
		t.Errorf("ShardLookups = %d, want %d: no label is asked twice", st.ShardLookups, k)
	}
	origin.mu.Lock()
	selected, want := slices.Clone(q.selected), full.SelectSources(q.engine.Labels())
	origin.mu.Unlock()
	if !slices.Equal(selected, want) {
		t.Errorf("selected %v after the last reply, full replica %v", selected, want)
	}
	if res := r.statuses(); res[q.engine.ID()] != "resolved-true" {
		t.Errorf("query = %s, want resolved-true", res[q.engine.ID()])
	}
	if info, _ := origin.ShardInfo(); info.Reselects != 1 {
		t.Errorf("ShardInfo.Reselects = %d, want 1", info.Reselects)
	}
	if v := Quiescent(r.nodes); len(v) > 0 {
		t.Errorf("not quiescent:\n%s", strings.Join(v, "\n"))
	}
}

// A label nobody covers is answered with an empty reply, which is believed
// for two protocol periods: a 20 s query that names one asks for it at
// most once per two periods, not once per round trip.
func TestEmptyLookupReplyIsBelieved(t *testing.T) {
	r := buildShardRig(t, 24, 16, 3, 9)
	origin := r.nodes["n0"]
	r.run(t, 10*time.Second)
	nobody := routedLabels(t, origin, 1, nobodyLabel)[0]
	q := issueAt(t, r, origin, 10*time.Second, 20*time.Second, nobody, "s05")
	r.run(t, 40*time.Second)

	// One lookup for s05 at most (its answer is cached), and one for the
	// uncovered label per two periods of the query's life, plus the first.
	const period = time.Second // buildShardRig's HeartbeatInterval
	limit := 1 + 1 + int(20*time.Second/(shardRetryPeriods*period))
	if got := origin.Stats().ShardLookups; got > limit {
		t.Errorf("%d ShardLookups for a 20 s query naming %s, want at most %d", got, nobody, limit)
	}
	if res := r.statuses(); res[q.engine.ID()] != "expired" {
		t.Errorf("query = %s, want expired: nobody covers %s", res[q.engine.ID()], nobody)
	}
	if v := Quiescent(r.nodes); len(v) > 0 {
		t.Errorf("not quiescent:\n%s", strings.Join(v, "\n"))
	}
}

// A lookup that leaves the pending table without an answer still settles
// its waiters: when the last lookup a query waits on gives up after
// shardLookupMaxTries, or loses its last replica to SourceDown, the query
// is re-selected once and pumps. Its labels are ones nobody covers, so
// nothing resolves it meanwhile, and the origin drops every lookup reply.
func TestAbandonedLookupReselects(t *testing.T) {
	setup := func(t *testing.T, rf int) (*shardRig, *Node, *localQuery) {
		r := buildShardRig(t, 24, 16, rf, 9)
		dropLookupReplies(t, r, "n0")
		origin := r.nodes["n0"]
		r.run(t, 10*time.Second)
		labels := routedLabels(t, origin, 2, nobodyLabel)
		return r, origin, issueAt(t, r, origin, 10*time.Second, 40*time.Second, labels...)
	}
	reselects := func(n *Node) int { return n.Stats().ShardReselects }

	t.Run("give-up", func(t *testing.T) {
		r, origin, q := setup(t, 3)
		// Both lookups send at 10 s and re-send every two periods; the
		// eighth try gives up at 26 s.
		r.run(t, 25900*time.Millisecond)
		if got := reselects(origin); got != 0 {
			t.Fatalf("ShardReselects = %d before any lookup gave up, want 0", got)
		}
		r.run(t, 26100*time.Millisecond)
		if got := reselects(origin); got != 1 {
			t.Fatalf("ShardReselects = %d after both lookups gave up, want 1", got)
		}
		if st := origin.Stats(); st.ShardReroutes != 2*(shardLookupMaxTries-1) {
			t.Errorf("ShardReroutes = %d, want %d", st.ShardReroutes, 2*(shardLookupMaxTries-1))
		}
		origin.mu.Lock()
		defer origin.mu.Unlock()
		if _, live := origin.queries[q.engine.ID()]; !live {
			t.Fatal("the query was recorded: nothing could resolve it")
		}
		// The pump that followed the re-selection asked again.
		if !origin.shard.router.AnyPending(q.engine.Labels()) {
			t.Error("no fresh lookup after the give-up")
		}
	})

	// A lookup is abandoned by SourceDown only when no other replica is
	// left to try, so this rig keeps one replica a shard: each lookup has
	// one target, and the query is settled once both targets are down.
	t.Run("source-down", func(t *testing.T) {
		r, origin, q := setup(t, 1)
		r.run(t, 11*time.Second)
		origin.mu.Lock()
		defer origin.mu.Unlock()
		var targets []string
		for _, l := range q.engine.Labels() {
			targets = append(targets, origin.shard.router.pending[l].targets...)
		}
		slices.Sort(targets)
		targets = slices.Compact(targets)
		for _, target := range targets {
			if got := origin.stats.ShardReselects; got != 0 {
				t.Fatalf("ShardReselects = %d with a lookup still pending, want 0", got)
			}
			origin.shardOnSourceDown(target)
		}
		if got := origin.stats.ShardReselects; got != 1 {
			t.Fatalf("ShardReselects = %d once the replicas %v went down, want 1", got, targets)
		}
		if _, live := origin.queries[q.engine.ID()]; !live {
			t.Fatal("the query was recorded: nothing could resolve it")
		}
	})
}

// BenchmarkLookupReplies is one query's lookups landing: a query waits on
// eight routed labels, and their eight replies are delivered. The work is
// what the replies cost the origin — the cache installs, the pumps, and
// the re-selections (reselects/op: 1, and 8 when every reply re-selects).
// ci.sh gates the allocs/op, where re-selecting on every reply shows as
// ~17 more.
func BenchmarkLookupReplies(b *testing.B) {
	descs, labels := selectFixture()
	labels = labels[:8]
	byLabel := make(map[string][]Advertisement)
	for i, d := range descs {
		for _, l := range d.Labels {
			byLabel[l] = append(byLabel[l], advertisementOf(d, uint64(i)+1))
		}
	}
	expr := boolexpr.ToDNF(boolexpr.MustParse(strings.Join(labels, " & ")))
	reselects := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := lookupNode(b, descs)
		if _, err := n.QueryInit(expr, time.Minute); err != nil {
			b.Fatal(err)
		}
		var replies []*ShardLookupReply
		for _, f := range n.tr.(*recTransport).sent {
			if m, ok := f.payload.(*ShardLookup); ok {
				replies = append(replies, &ShardLookupReply{From: m.To, To: "querier", Nonce: m.Nonce, Adverts: byLabel[m.Label]})
			}
		}
		if len(replies) != len(labels) {
			b.Fatalf("%d lookups for %d routed labels", len(replies), len(labels))
		}
		b.StartTimer()
		n.mu.Lock()
		for _, m := range replies {
			n.handleShardLookupReply(m)
		}
		reselects += n.stats.ShardReselects
		n.mu.Unlock()
	}
	b.ReportMetric(float64(reselects)/float64(b.N), "reselects/op")
}

// lookupNode is a sharded querier over the given sources, on a recording
// transport with timers that never fire. It advertises no source of its
// own, so its refreshed view leaves it no shard: every label routes.
func lookupNode(tb testing.TB, descs []object.Descriptor) *Node {
	tb.Helper()
	auth := trust.NewAuthority()
	n, err := New(Config{
		ID: "querier", Transport: &recTransport{}, Router: &StaticRouter{Self: "querier"}, Timers: noTimers{},
		Scheme: SchemeLVF, Directory: NewDirectory(descs),
		Authority: auth, Signer: auth.Register("querier", []byte("k-querier")), Policy: trust.TrustAll(),
		DisablePrefetch:   true,
		HeartbeatInterval: time.Second, GossipFanout: 2, Shards: 16, ShardReplicas: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	n.mu.Lock()
	n.shardRefresh()
	n.mu.Unlock()
	return n
}

// BenchmarkShardLookupServe is a shard owner answering one routed lookup
// for a label four records cover: the reply frame and its advert list,
// each advert a read-only view of its record (2 allocs/op; 6 when every
// advert copied its record's labels). ci.sh gates the allocs/op.
func BenchmarkShardLookupServe(b *testing.B) {
	var descs []object.Descriptor
	for i := 0; i < 8; i++ {
		labels := []string{fmt.Sprintf("own%d", i), "other"}
		if i%2 == 0 {
			labels = append(labels, "seg")
		}
		descs = append(descs, shardDesc(fmt.Sprintf("s%d", i), fmt.Sprintf("/grid/g%d/cam", i), labels...))
	}
	rec := &recTransport{}
	auth := trust.NewAuthority()
	n, err := New(Config{
		ID: "owner", Transport: rec, Router: &StaticRouter{Self: "owner"}, Timers: noTimers{},
		Scheme: SchemeLVF, Directory: NewDirectory(descs),
		Authority: auth, Signer: auth.Register("owner", []byte("k-owner")), Policy: trust.TrustAll(),
		DisablePrefetch: true, HeartbeatInterval: time.Second, GossipFanout: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := &ShardLookup{From: "querier", To: "owner", Label: "seg", Nonce: 1}
	n.mu.Lock()
	defer n.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.sent = rec.sent[:0]
		n.handleShardLookup(m)
	}
	b.StopTimer()
	if len(rec.sent) != 1 || len(rec.sent[0].payload.(*ShardLookupReply).Adverts) != 4 {
		b.Fatalf("served %+v, want one reply of four adverts", rec.sent)
	}
}
