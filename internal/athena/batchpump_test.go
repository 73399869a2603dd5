package athena

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/object"
	"athena/internal/workload"
)

// refTarget is a target of refBatchTargets.
type refTarget struct {
	source string
	obj    string
	labels []string
	size   int64
}

// refBatchTargets is pumpBatch's target derivation before the target
// table, verbatim but for returning the targets instead of requesting
// them: a directory walk per pump. Callers hold n.mu.
func refBatchTargets(n *Node, q *localQuery, now time.Time) []refTarget {
	type target = refTarget
	var targets []target
	seen := make(map[string]bool)
	add := func(src string) {
		desc, ok := n.descriptorOf(src)
		if !ok {
			return
		}
		obj := desc.Name.String()
		if !seen[obj] {
			seen[obj] = true
			targets = append(targets, target{source: src, obj: obj, labels: desc.Labels, size: desc.Size})
		}
	}
	for _, label := range q.engine.UnknownLabels(now) {
		if n.scheme == SchemeCMP {
			srcs, cached := n.candidates(q.engine.ID(), label)
			if !cached {
				srcs = n.dir.SourcesFor(label)
			}
			for _, src := range srcs {
				add(src)
			}
		} else {
			if src := n.sourceFor(q, label); src != "" {
				add(src)
			}
		}
	}
	if n.scheme == SchemeLCF {
		slices.SortStableFunc(targets, func(a, b target) int {
			return cmp.Compare(a.size, b.size)
		})
	}
	return targets
}

// checkPump pumps q once and wants the targets and the requests the
// directory walk calls for: the same (source, object, labels, size) list in
// the same order, and the same requests, by source, object and wanted
// labels, sent by the parent's loop over it. It reports how many targets
// the pump had.
func checkPump(t *testing.T, n *Node, q *localQuery, where string) int {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	if n.queries[q.engine.ID()] != q || q.engine.Step(now) != core.Pending {
		return 0
	}
	want := refBatchTargets(n, q, now)
	var wantReqs []string
	inFlight := q.inFlight
	for _, tg := range want {
		if inFlight >= batchWindow {
			break
		}
		if q.reqs[tg.obj].inFlight {
			continue
		}
		if w := q.engine.Wanted(tg.labels, now); len(w) > 0 {
			inFlight++
			wantReqs = append(wantReqs, fmt.Sprint(tg.source, " ", tg.obj, " ", w))
		}
	}
	from := len(n.fetchQ)
	n.pumpBatch(q, now)
	var got []refTarget
	for _, e := range q.batch.targets {
		got = append(got, refTarget{source: e.source, obj: q.batch.objs[e.obj].name, labels: e.labels, size: e.size})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: %s targets\n %v\nthe directory walk\n %v", where, q.engine.ID(), got, want)
	}
	var gotReqs []string
	for _, r := range n.fetchQ[from:] {
		gotReqs = append(gotReqs, fmt.Sprint(r.req.SourceNode, " ", r.req.Object, " ", r.req.Labels))
	}
	if !slices.Equal(gotReqs, wantReqs) {
		t.Fatalf("%s: %s requested\n %v\nthe directory walk's\n %v", where, q.engine.ID(), gotReqs, wantReqs)
	}
	return len(got)
}

// liveQueries lists n's live queries, in id order.
func liveQueries(n *Node) []*localQuery {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []*localQuery
	for q := n.liveAfter(""); q != nil; q = n.liveAfter(q.engine.ID()) {
		out = append(out, q)
	}
	return out
}

// TestBatchPumpMatchesDirectoryWalk holds the batch pump's target table to
// the directory walk it replaced (refBatchTargets): on seeded Sec. VII
// fleets under cmp, slt and lcf, every live query is pumped every 100 ms of
// its first 12 s and must target and request exactly what the walk does.
// Mid-run the shared directory changes under the queries — a source
// withdrawn, one evicted, and two sources advertising another's object
// name, one with its labels and one with labels its content lacks
// (churnDirectory) — and slt/lcf queries mark their selected sources
// suspect, so the pick fails over. Some origin must decline a
// content-store answer for the misadvertised name (Stats.ForeignAnswers).
func TestBatchPumpMatchesDirectoryWalk(t *testing.T) {
	foreign := 0
	for _, scheme := range []Scheme{SchemeCMP, SchemeSLT, SchemeLCF} {
		for seed := int64(1); seed <= 2; seed++ {
			wcfg := workload.DefaultConfig()
			wcfg.GridRows, wcfg.GridCols, wcfg.Nodes, wcfg.QueriesPerNode = 5, 5, 14, 2
			wcfg.Seed = seed
			s, err := workload.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(s, ClusterConfig{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.issue(); err != nil {
				t.Fatal(err)
			}
			ids := sortedMapKeys(c.Nodes)
			targets := 0
			for step := 1; step <= 120; step++ {
				at := s.Epoch.Add(time.Duration(step) * 100 * time.Millisecond)
				runWithin(t, c, at)
				switch step {
				case 40:
					churnDirectory(t, c)
				case 60:
					if scheme != SchemeCMP {
						suspectSelected(c)
					}
				}
				for _, id := range ids {
					for _, q := range liveQueries(c.Nodes[id]) {
						targets += checkPump(t, c.Nodes[id], q, fmt.Sprintf("%v seed %d at %v", scheme, seed, at.Sub(s.Epoch)))
					}
				}
			}
			if targets == 0 {
				t.Errorf("%v seed %d: no pump had a target", scheme, seed)
			}
			for _, id := range ids {
				foreign += c.Nodes[id].Stats().ForeignAnswers
			}
		}
	}
	if foreign == 0 {
		t.Error("no content-store answer was declined: the re-advertised name never met a request")
	}
}

// runWithin runs c until at, and fails the test if that takes more than
// a minute of wall time: a node whose drain re-dispatches what it just
// answered never returns from its event, and the test must say so rather
// than hang the package. The stuck run is left spinning on its own
// goroutine (the kernel has no way to stop an event from outside), and
// the package's other tests still run and report.
func runWithin(t *testing.T, c *Cluster, at time.Time) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Network.RunUntil(at, maxEvents) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("the run to %v did not return within a minute: an event never ends", at)
	}
}

// churnDirectory changes the fleet's shared directory the three ways a
// membership layer does: the first source withdraws, the second is
// evicted, and the fourth re-advertises as a replica of the third's
// object, its name and labels at another size — one object under two
// sources. The fifth re-advertises under the third's name too, but with
// the fourth's labels: a name whose content covers none of what it is
// advertised for. A request for it that the origin's content store
// answers with the third's object is not the request's data, and must go
// to the network rather than back into the fetch queue (ROADMAP item 14's
// livelock: drain → dispatchRequest → deliverObject, for ever).
func churnDirectory(t *testing.T, c *Cluster) {
	t.Helper()
	d := c.Directory
	srcs := d.Sources()
	if len(srcs) < 5 {
		t.Fatalf("directory lists %v, want five sources", srcs)
	}
	seq, _ := d.Seq(srcs[0])
	if !d.Withdraw(srcs[0], seq+1) || !d.Evict(srcs[1]) {
		t.Fatal("directory did not change")
	}
	third, _ := d.Descriptor(srcs[2])
	fourth, _ := d.Descriptor(srcs[3])
	for _, re := range []struct {
		src    string
		labels []string
	}{{srcs[3], third.Labels}, {srcs[4], fourth.Labels}} {
		seq, _ = d.Seq(re.src)
		moved := object.Descriptor{
			Name: third.Name, Size: third.Size/2 + 1, Validity: third.Validity,
			Labels: slices.Clone(re.labels), Source: re.src, ProbTrue: third.ProbTrue,
		}
		if !d.Advertise(moved, seq+1) {
			t.Fatal("re-advertisement not admitted")
		}
	}
}

// suspectSelected marks every live query's selected sources suspect.
func suspectSelected(c *Cluster) {
	for _, n := range c.Nodes {
		n.mu.Lock()
		for q := n.liveAfter(""); q != nil; q = n.liveAfter(q.engine.ID()) {
			for _, src := range q.selected {
				q.suspectSource(src)
			}
		}
		n.mu.Unlock()
	}
}

// TestBatchPumpMatchesDirectoryWalkSharded is the sharded side: a batch
// query at a sharded node asks candidates for each label first, so its
// routed labels' lookups start and count as before, and a label its lookup
// cache answers is priced through descriptorOf. The query names a routed
// label whose source the origin's directory holds thin and one whose it
// holds in full, with their lookups pending (the origin drops the
// replies) or answered, one label nobody covers (the negative answer is
// cached) and one the origin's shards own; the origin is pumped at issue
// and as the replies land.
func TestBatchPumpMatchesDirectoryWalkSharded(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCMP, SchemeSLT, SchemeLCF} {
		for _, drop := range []bool{false, true} {
			r := buildShardRig(t, 24, 16, 3, 9)
			r.run(t, 10*time.Second)
			origin := thinOrigin(t, r)
			origin.scheme = scheme
			if drop {
				dropLookupReplies(t, r, origin.id)
			}
			thin, held := routedByRecord(t, origin)
			nobody := routedLabels(t, origin, 1, nobodyLabel)[0]
			owned := ownedLabel(t, origin)
			labels := []string{thin, nobody, owned}
			if held != "" {
				labels = append(labels, held)
			}
			where := fmt.Sprintf("%v drop=%v", scheme, drop)
			// The first query's pumps find its routed labels' lookups
			// pending, then answered; the second's, issued once the
			// answers are in, find them in the lookup cache.
			for i, at := range []time.Duration{10 * time.Second, 12 * time.Second} {
				q := issueAt(t, r, origin, at, 30*time.Second, labels...)
				hits := origin.Stats().ShardLookupHits
				for step := 0; step < 20; step++ {
					checkPump(t, origin, q, fmt.Sprintf("%s query %d step %d", where, i, step))
					r.run(t, at+time.Duration(step+1)*50*time.Millisecond)
				}
				if got := origin.Stats().ShardLookupHits; i == 1 && !drop && got == hits {
					t.Errorf("%s: no pump of the second query read the lookup cache (%d hits)", where, got)
				}
			}
		}
	}
}

// routedByRecord returns rig labels n neither owns nor sources: one whose
// covering source n holds only a thin record of (its lookup answer lists a
// source the directory does not) and, if there is one, one whose source's
// record n holds in full (the answer and the directory agree), else "".
func routedByRecord(t *testing.T, n *Node) (thin, held string) {
	t.Helper()
	for _, l := range routedLabels(t, n, 12, rigLabel) {
		if len(n.dir.SourcesFor(l)) == 0 {
			thin = cmp.Or(thin, l)
		} else {
			held = cmp.Or(held, l)
		}
	}
	if thin == "" {
		t.Fatalf("%s: no routed label with a thin record", n.id)
	}
	return thin, held
}

// thinOrigin returns the first node of the rig that does not own the
// label every source covers ("ok"), so it holds only thin records of the
// sources outside its shards.
func thinOrigin(t *testing.T, r *shardRig) *Node {
	t.Helper()
	for _, id := range r.ids {
		n := r.nodes[id]
		n.mu.Lock()
		owns := n.shard.router.OwnsLabel("ok")
		n.mu.Unlock()
		if !owns {
			return n
		}
	}
	t.Fatal("every node owns ok")
	return nil
}

// ownedLabel returns a label of the rig that n's shards own.
func ownedLabel(t *testing.T, n *Node) string {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < 24; i++ {
		if l := rigLabel(i); n.shard.router.OwnsLabel(l) {
			return l
		}
	}
	t.Fatalf("%s owns no rig label", n.id)
	return ""
}

// TestWarmBatchPumpDoesNotAllocate: a pump whose query has its table and
// every target in flight builds its targets in the table's scratch and
// requests nothing, so it allocates nothing at all.
func TestWarmBatchPumpDoesNotAllocate(t *testing.T) {
	n, q := pumpFixture(t)
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	n.pumpBatch(q, now)
	if q.inFlight == 0 || len(q.batch.targets) == 0 {
		t.Fatalf("fixture pump: %d targets, %d requests in flight", len(q.batch.targets), q.inFlight)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.pumpBatch(q, now) }); allocs != 0 {
		t.Errorf("a warm pump that requests nothing allocates %v times, want 0", allocs)
	}
}

// pumpFixture is one Sec. VII cmp node of a fleet whose shared directory
// is warm, with one live query over nine labels, issued but not yet
// pumped: a node on a recording transport whose timers never fire.
func pumpFixture(tb testing.TB) (*Node, *localQuery) {
	tb.Helper()
	s, err := workload.Generate(workload.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	c, err := NewCluster(s, ClusterConfig{Scheme: SchemeCMP})
	if err != nil {
		tb.Fatal(err)
	}
	var qs *workload.QuerySpec
	for i := range s.Queries {
		if n := len(s.Queries[i].Expr.Labels()); n >= 9 && (qs == nil || n < len(qs.Expr.Labels())) {
			qs = &s.Queries[i]
		}
	}
	if qs == nil {
		tb.Fatal("no Sec. VII query of nine labels or more")
	}
	n := c.Nodes[qs.Origin]
	n.tr, n.timers = &recTransport{}, noTimers{}
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.id + "/bench"
	q := &localQuery{
		engine: core.NewEngineWithPlan(id, qs.Expr, n.now().Add(qs.Deadline), n.meta, n.planFor(qs.Expr, qs.Expr.String())),
		reqs:   make(map[string]objReq),
		batch:  &batchTable{},
	}
	n.queries[id] = q
	return n, q
}

// BenchmarkPumpBatch is one Sec. VII cmp query's pump against a warm
// directory, its table built: the query's requests are taken out of
// flight, as a recovery timeout does, and the pump requests them again. ci.sh gates allocs/op,
// which is where a pump that rebuilds its targets from the directory
// shows; what is left is requestObject's own.
func BenchmarkPumpBatch(b *testing.B) {
	b.Run("cmp", func(b *testing.B) {
		n, q := pumpFixture(b)
		n.mu.Lock()
		defer n.mu.Unlock()
		now := n.now()
		n.pumpBatch(q, now) // the first pump builds the table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for obj, r := range q.reqs {
				if r.inFlight {
					q.step(obj, reqTimeout, r.sends)
				}
			}
			n.fetchQ = n.fetchQ[:0]
			n.pumpBatch(q, now)
		}
		if q.inFlight == 0 {
			b.Fatal("the pump requested nothing")
		}
	})
}
