package athena

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
)

// gossipRig is a fleet of gossip-membership nodes on a seeded random
// connected topology (BuildRandomConnected), every node a source with its
// own directory replica — the shape the SWIM protocol is built for.
type gossipRig struct {
	sched *simclock.Scheduler
	net   *netsim.Network
	ids   []string
	nodes map[string]*Node
}

func buildGossipRig(t *testing.T, n, fanout int, seed int64) *gossipRig {
	t.Helper()
	sched := simclock.New(tBase)
	net := netsim.New(sched)
	rng := rand.New(rand.NewSource(seed))
	linkCfg := netsim.LinkConfig{Bandwidth: 1 << 20, Latency: time.Millisecond}
	if err := netsim.BuildRandomConnected(net, n, n/2, linkCfg, rng); err != nil {
		t.Fatal(err)
	}

	r := &gossipRig{sched: sched, net: net, nodes: make(map[string]*Node)}
	descs := make([]object.Descriptor, n)
	for i := range descs {
		id := fmt.Sprintf("n%d", i)
		r.ids = append(r.ids, id)
		descs[i] = object.Descriptor{
			Name: names.MustParse("/src/" + id), Size: 1000, Source: id,
			Labels: []string{"ok"}, Validity: time.Minute, ProbTrue: 0.8,
		}
	}
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"ok": {Cost: 1000, ProbTrue: 0.8, Validity: time.Minute}}
	world := staticWorld{"ok": true}
	for i, id := range r.ids {
		desc := descs[i]
		node, err := New(Config{
			ID:                id,
			Transport:         transport.NewSim(net, id),
			Router:            net,
			Timers:            LaneTimers{Lane: sched.Lane},
			Scheme:            SchemeLVF,
			Directory:         NewDirectory(descs),
			Meta:              meta,
			World:             world,
			Authority:         auth,
			Signer:            auth.Register(id, []byte("k-"+id)),
			Policy:            trust.TrustAll(),
			Descriptor:        &desc,
			CacheBytes:        8 << 20,
			HeartbeatInterval: time.Second,
			GossipFanout:      fanout,
			GossipSeed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[id] = node
	}
	return r
}

func (r *gossipRig) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := r.sched.RunUntil(tBase.Add(until), 0); err != nil {
		t.Fatal(err)
	}
}

// logRounds is ⌈log₂(n+1)⌉ — the epidemic-dissemination round unit the
// piggyback budget is denominated in.
func logRounds(n int) int {
	r := 1
	for v := 1; v < n+1; v <<= 1 {
		r++
	}
	return r
}

// All replicas start equal, so steady gossip must keep them equal: no
// suspicions ripen into evictions and every digest stays converged on an
// idle fleet.
func TestGossipSteadyStateNoFalseEvictions(t *testing.T) {
	r := buildGossipRig(t, 16, 2, 11)
	r.run(t, 60*time.Second)
	want := r.nodes[r.ids[0]].Directory().Digest()
	for _, id := range r.ids {
		node := r.nodes[id]
		if got := node.Directory().Digest(); got != want {
			t.Fatalf("%s digest diverged", id)
		}
		if st := node.Stats(); st.Evictions != 0 {
			t.Fatalf("%s false evictions: %+v", id, st)
		}
		if len(node.Directory().Sources()) != 16 {
			t.Fatalf("%s lost sources: %d", id, len(node.Directory().Sources()))
		}
	}
}

// A crashed node is suspected, confirmed through indirect probes, and
// evicted from every live replica within the suspicion window plus
// O(log n) dissemination rounds; no live node is falsely evicted.
func TestGossipCrashEvictionConverges(t *testing.T) {
	const n = 24
	r := buildGossipRig(t, n, 2, 13)
	r.run(t, 20*time.Second) // settle

	// Crash a leaf: the simulator's routes are not failure-aware, so a
	// dead transit node legitimately makes everything behind it
	// unreachable (and thus evictable). A leaf carries no transit
	// traffic, isolating the failure-detector behaviour under test.
	dead := ""
	for _, id := range r.ids {
		if len(r.net.Neighbors(id)) == 1 {
			dead = id
			break
		}
	}
	if dead == "" {
		t.Fatal("topology has no leaf node")
	}
	if err := r.net.SetNodeDown(dead, true); err != nil {
		t.Fatal(err)
	}
	// Detection: the suspicion window is 3×miss×interval = 9s. Eviction
	// disseminates epidemically after that; allow the window plus a
	// generous multiple of log₂ n rounds (1s each).
	wait := 9*time.Second + time.Duration(4*logRounds(n))*time.Second
	r.run(t, 20*time.Second+wait+10*time.Second)

	for _, id := range r.ids {
		if id == dead {
			continue
		}
		node := r.nodes[id]
		if node.Directory().Has(dead) {
			t.Errorf("%s still lists crashed %s", id, dead)
		}
		for _, live := range r.ids {
			if live == dead {
				continue
			}
			if !node.Directory().Has(live) {
				t.Errorf("%s falsely dropped live %s", id, live)
			}
		}
	}
}

// A death notice at the largest seq a uint64 holds must not evict its
// subject for good. The subject refutes a notice at or past its own seq
// with a seq one past the notice's, which here would wrap to zero, and no
// advert could then supersede the notice. The same notice at the
// subject's real seq is the control: it is refuted, and every replica
// lists the subject again.
func TestGossipMaxSeqDeathNoticeEvictsNobody(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seq     func(have uint64) uint64
		refused int // n1's RecordsRefused
	}{
		{"real seq", func(s uint64) uint64 { return s }, 0},
		{"max seq", func(uint64) uint64 { return math.MaxUint64 }, 1},
		// The largest notice taken leaves its refutation a holdable seq.
		{"limit-2", func(uint64) uint64 { return seqLimit - 2 }, 0},
		{"limit-1", func(uint64) uint64 { return seqLimit - 1 }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := buildGossipRig(t, 8, 2, 11)
			r.run(t, 10*time.Second)
			have, _, _ := r.nodes["n1"].Directory().Known("n3")
			notice := &Ping{From: "n0", To: "n1", Seq: 1, Updates: []MemberUpdate{
				{Adv: Advertisement{Source: "n3", Seq: tc.seq(have)}, Dead: true},
			}}
			r.nodes["n1"].handleMessage("n0", notice.WireSize(), notice)
			if got := r.nodes["n1"].Stats().RecordsRefused; got != tc.refused {
				t.Errorf("n1 refused %d records, want %d", got, tc.refused)
			}
			r.run(t, 120*time.Second)
			var absent []string
			for _, id := range r.ids {
				if !r.nodes[id].Directory().Has("n3") {
					absent = append(absent, id)
				}
			}
			if len(absent) != 0 {
				t.Errorf("n3 absent at %d of %d nodes 110 s after the notice: %v", len(absent), len(r.ids), absent)
			}
		})
	}
}

// A graceful Leave spreads as a piggybacked withdraw tombstone: every
// replica drops the leaver within O(log n) gossip rounds, with no
// suspicion machinery involved.
func TestGossipGracefulLeaveSpreads(t *testing.T) {
	const n = 24
	r := buildGossipRig(t, n, 2, 17)
	r.run(t, 20*time.Second) // settle

	leaver := r.ids[3]
	if err := r.nodes[leaver].Leave(); err != nil {
		t.Fatal(err)
	}
	rounds := 4 * logRounds(n)
	r.run(t, 20*time.Second+time.Duration(rounds)*time.Second)

	for _, id := range r.ids {
		if id == leaver {
			continue
		}
		if r.nodes[id].Directory().Has(leaver) {
			t.Errorf("%s still lists %s after graceful leave (%d rounds)", id, leaver, rounds)
		}
	}
	evictions := 0
	for _, id := range r.ids {
		evictions += r.nodes[id].Stats().Evictions
	}
	if evictions != 0 {
		t.Errorf("graceful leave caused %d evictions; want tombstones only", evictions)
	}
}

// A rejoining node re-advertises past its tombstone and every replica
// re-admits it within O(log n) rounds of the return.
func TestGossipRejoinConverges(t *testing.T) {
	const n = 16
	r := buildGossipRig(t, n, 2, 19)
	r.run(t, 20*time.Second)

	gone := ""
	for _, id := range r.ids {
		if len(r.net.Neighbors(id)) == 1 {
			gone = id
			break
		}
	}
	if gone == "" {
		t.Fatal("topology has no leaf node")
	}
	if err := r.net.SetNodeDown(gone, true); err != nil {
		t.Fatal(err)
	}
	r.run(t, 60*time.Second) // long outage: everyone evicts it
	for _, id := range r.ids {
		if id != gone && r.nodes[id].Directory().Has(gone) {
			t.Fatalf("%s did not evict %s during outage", id, gone)
		}
	}

	if err := r.net.SetNodeDown(gone, false); err != nil {
		t.Fatal(err)
	}
	r.nodes[gone].Rejoin()
	r.run(t, 60*time.Second+time.Duration(4*logRounds(n))*time.Second)

	for _, id := range r.ids {
		if !r.nodes[id].Directory().Has(gone) {
			t.Errorf("%s did not re-admit %s after rejoin", id, gone)
		}
	}
}

// A false death notice about a live node is refuted: the victim bumps its
// advertisement sequence (SWIM incarnation) and the fleet re-admits it.
func TestGossipRefutesFalseEviction(t *testing.T) {
	const n = 12
	r := buildGossipRig(t, n, 2, 23)
	r.run(t, 15*time.Second)

	victim := r.ids[2]
	accuser := r.nodes[r.ids[7]]
	accuser.mu.Lock()
	seq, _, _ := accuser.dir.Known(victim)
	accuser.applyUpdates([]MemberUpdate{{
		Adv:  Advertisement{Source: victim, Seq: seq},
		Dead: true,
		Born: accuser.now(),
	}}, accuser.now())
	accuser.mu.Unlock()

	r.run(t, 15*time.Second+time.Duration(6*logRounds(n))*time.Second)

	for _, id := range r.ids {
		if !r.nodes[id].Directory().Has(victim) {
			t.Errorf("%s still believes %s dead after refutation", id, victim)
		}
	}
	if st := r.nodes[victim].Stats(); st.Refutations == 0 {
		t.Error("victim never refuted the death notice")
	}
}

// Flood mode must not regress: with GossipFanout unset the same rig runs
// the pre-existing flooded-heartbeat protocol and converges too — and the
// gossip control plane stays strictly cheaper per node than the flood.
func TestGossipControlPlaneCheaperThanFlood(t *testing.T) {
	bytesPerNode := func(fanout int) int64 {
		sched := simclock.New(tBase)
		net := netsim.New(sched)
		rng := rand.New(rand.NewSource(31))
		const n = 32
		if err := netsim.BuildRandomConnected(net, n, n/2, netsim.LinkConfig{Bandwidth: 1 << 20, Latency: time.Millisecond}, rng); err != nil {
			t.Fatal(err)
		}
		descs := make([]object.Descriptor, n)
		ids := make([]string, n)
		for i := range descs {
			ids[i] = fmt.Sprintf("n%d", i)
			descs[i] = object.Descriptor{
				Name: names.MustParse("/src/" + ids[i]), Size: 1000, Source: ids[i],
				Labels: []string{"ok"}, Validity: time.Minute, ProbTrue: 0.8,
			}
		}
		auth := trust.NewAuthority()
		meta := boolexpr.MetaTable{"ok": {Cost: 1000, ProbTrue: 0.8, Validity: time.Minute}}
		nodes := make([]*Node, n)
		for i, id := range ids {
			desc := descs[i]
			node, err := New(Config{
				ID: id, Transport: transport.NewSim(net, id), Router: net,
				Timers: LaneTimers{Lane: sched.Lane}, Scheme: SchemeLVF,
				Directory: NewDirectory(descs), Meta: meta,
				World: staticWorld{"ok": true}, Authority: auth,
				Signer: auth.Register(id, []byte("k-"+id)), Policy: trust.TrustAll(),
				Descriptor: &desc, CacheBytes: 8 << 20,
				HeartbeatInterval: time.Second, GossipFanout: fanout, GossipSeed: 31,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		if err := sched.RunUntil(tBase.Add(120*time.Second), 0); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, node := range nodes {
			total += node.Stats().ControlBytes
		}
		return total / n
	}

	flood := bytesPerNode(0)
	gossip := bytesPerNode(2)
	// The 1/3 bound reflects honest probe pricing: pingBaseBytes was
	// repriced from 72 to 96 (the old value undercounted real encoded
	// probe frames), which raised gossip's measured bytes while flood —
	// which sends no probes — was unaffected.
	if gossip*3 > flood {
		t.Errorf("gossip control plane = %d B/node, flood = %d B/node; want gossip <= 33%%", gossip, flood)
	}
}

// BenchmarkSwimProbeRound is one SWIM probe round between two members
// whose piggyback buffers are full: a's sendProbe, b's handlePing and
// sendAck, a's handleAck. Each frame carries gossipMaxPiggyback updates its
// receiver already has, so nothing is applied and no sync starts; what is
// left is the two frames and their update lists (4 allocs/op; 10 when a
// piggyback take boxed, sorted through reflection and copied its
// updates). ci.sh gates the allocs/op.
func BenchmarkSwimProbeRound(b *testing.B) {
	var descs []object.Descriptor
	for i := 0; i < 18; i++ {
		id := fmt.Sprintf("m%02d", i)
		descs = append(descs, object.Descriptor{
			Name: names.MustParse("/cam/" + id), Size: 1000, Source: id,
			Labels: []string{"l" + id}, Validity: time.Minute, ProbTrue: 0.8,
		})
	}
	member := func(i int) (*Node, *recTransport) {
		desc := descs[i]
		rec := &recTransport{}
		auth := trust.NewAuthority()
		n, err := New(Config{
			ID: desc.Source, Transport: rec, Router: &StaticRouter{Self: desc.Source}, Timers: noTimers{},
			Scheme: SchemeLVF, Directory: NewDirectory(descs), Descriptor: &desc,
			Authority: auth, Signer: auth.Register(desc.Source, []byte("k")), Policy: trust.TrustAll(),
			HeartbeatInterval: time.Second, GossipFanout: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Every other member's current advert, with a budget no run spends.
		for j, d := range descs {
			if j != i {
				u := MemberUpdate{Adv: advertisementOf(d, uint64(j)+1)}
				n.member.swim.piggy.Put(d.Source, updateRank(u), u, 1<<30)
			}
		}
		return n, rec
	}
	a, ra := member(0)
	bn, rb := member(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	bn.mu.Lock()
	defer bn.mu.Unlock()
	now := a.now()
	round := func() {
		ra.sent, rb.sent = ra.sent[:0], rb.sent[:0]
		a.sendProbe(bn.id, now)
		bn.handlePing(ra.sent[0].payload.(*Ping))
		if len(rb.sent) != 1 {
			b.Fatalf("b answered a probe with %d frames, want its ack alone", len(rb.sent))
		}
		a.handleAck(rb.sent[0].payload.(*Ack))
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if ups := len(ra.sent[0].payload.(*Ping).Updates); ups != gossipMaxPiggyback || len(a.member.swim.probes) != 0 {
		b.Fatalf("a ping carried %d updates with %d probes open, want %d and none", ups, len(a.member.swim.probes), gossipMaxPiggyback)
	}
}

// TestForgedRecordsSpeakForLiveSource pins ROADMAP item 30's finding: a
// directory record is not signed, so any node can speak for another. On
// the 12-node rig, one node injects a single record about a live node at
// 5 s, through applyAdverts and its dissemination, as a peer's
// AdvertGossip would be applied, and the rig runs 120 s more:
//   - a presence advert at seq 2^62-1 with labels the victim never
//     advertised reaches every other replica, under flood and under SWIM,
//     and the victim, which ignores records about itself, never refutes
//     it;
//   - a tombstone at 2^62-2 drops the live victim from every other
//     replica under flood for good; under SWIM the victim refutes it, but
//     only by jumping to seq 2^62-1, the highest a record may take.
//
// The counts are today's, not a contract: item 30's PR (signed records)
// inverts this test, so that no replica holds the forgery.
//
// Replay: go test ./internal/athena -run TestForgedRecordsSpeakForLiveSource -v
func TestForgedRecordsSpeakForLiveSource(t *testing.T) {
	cases := []struct {
		name      string
		fanout    int
		tombstone bool
		forged    int // replicas other than the victim holding the forgery
		refuted   bool
	}{
		{"flood/presence", 0, false, 11, false},
		{"swim/presence", 2, false, 11, false},
		{"flood/tombstone", 0, true, 11, false},
		{"swim/tombstone", 2, true, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := buildGossipRig(t, 12, c.fanout, 23)
			r.run(t, 5*time.Second)
			victim, forger := r.ids[2], r.nodes[r.ids[7]]
			forgery := Advertisement{
				Source: victim, Name: "/src/" + victim, Size: 1000, Validity: time.Minute,
				Labels: []string{"forged"}, ProbTrue: 0.8, Seq: 1<<62 - 1,
			}
			if c.tombstone {
				forgery = Advertisement{Source: victim, Seq: 1<<62 - 2, Withdrawn: true}
			}
			own, _, _ := r.nodes[victim].Directory().Known(victim)
			forger.mu.Lock()
			news := forger.applyAdverts([]Advertisement{forgery}, "")
			forger.mu.Unlock()
			if len(news) != 1 {
				t.Fatalf("the forger applied %d of 1 forged records", len(news))
			}
			r.run(t, 125*time.Second)
			forged := 0
			for _, id := range r.ids {
				if id == victim {
					continue
				}
				n := r.nodes[id]
				n.mu.Lock()
				desc, ok := n.descriptorOf(victim)
				n.mu.Unlock()
				if c.tombstone && !n.Directory().Has(victim) || !c.tombstone && ok && slices.Contains(desc.Labels, "forged") {
					forged++
				}
			}
			seq, _, _ := r.nodes[victim].Directory().Known(victim)
			t.Logf("%s: %d of %d other replicas hold the forgery; the victim's own seq is %d", c.name, forged, len(r.ids)-1, seq)
			if forged != c.forged {
				t.Errorf("%d of %d other replicas hold the forgery, pinned %d", forged, len(r.ids)-1, c.forged)
			}
			// Under SWIM the victim refutes a tombstone, but only by jumping
			// to the highest seq a record may take; nothing else moves it.
			want := own
			if c.refuted {
				want = 1<<62 - 1
			}
			if seq != want {
				t.Errorf("the victim's own seq is %d, pinned %d", seq, want)
			}
		})
	}
}

// TestRejoinKeepsOutageSuspicions pins the first defect of ROADMAP item
// 28 (P53's FOUND): Rejoin clears a node's probes but keeps the
// suspicions its own outage raised. On the 12-node SWIM rig (seed 23) the
// leaf n10 is down from 10 s to 40 s, longer than suspectPeriods periods;
// every probe it sends meanwhile times out, so it returns suspecting all
// 11 peers. As it returns, the leaf n11's only link blips for 3 s, a third
// of suspectPeriods periods. The acks of the other peers clear their
// suspicions and wind the local health multiplier down, and n10 evicts
// n11, whose suspicion dates from n10's own outage, although n11 was never
// down. The twin run without n10's outage sees the same blip and evicts
// nobody.
//
// The counts are today's, not a contract: item 28's PR (a returning node
// starts clean) inverts this test, so that n10 returns with no suspicion
// and evicts nobody.
//
// Replay: go test ./internal/athena -run TestRejoinKeepsOutageSuspicions -v
func TestRejoinKeepsOutageSuspicions(t *testing.T) {
	for _, c := range []struct {
		name              string
		outage            bool
		suspects, evicted int
	}{
		{"returning", true, 11, 1},
		{"never down", false, -1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := buildGossipRig(t, 12, 2, 23)
			node, blip := r.nodes["n10"], "n11"
			if len(r.net.Neighbors("n10")) != 1 || len(r.net.Neighbors(blip)) != 1 {
				t.Fatalf("n10 and %s are not both leaves of the seed-23 rig", blip)
			}
			held := -1 // suspicions n10 holds once it has rejoined; -1 if it never left
			r.net.OnChurn(func(id string, up bool) {
				if up && id == "n10" {
					node.Rejoin()
					held = len(node.member.swim.suspects)
				}
			})
			back := 40 * time.Second
			if c.outage {
				if err := r.net.ScheduleNodeOutage("n10", tBase.Add(10*time.Second), 30*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.net.ScheduleLinkOutage(blip, r.net.Neighbors(blip)[0], tBase.Add(back), 3*time.Second); err != nil {
				t.Fatal(err)
			}
			r.run(t, back-time.Millisecond)
			before := node.Stats().Evictions
			r.run(t, back+5*time.Second)
			evicted := node.Stats().Evictions - before
			t.Logf("n10 holds %d suspicions on its return and evicts %d peers in 5 s", held, evicted)
			if held != c.suspects || evicted != c.evicted {
				t.Errorf("n10 held %d suspicions and evicted %d peers, pinned %d and %d", held, evicted, c.suspects, c.evicted)
			}
			for _, id := range r.ids {
				if id != "n10" && !r.nodes[id].Directory().Has(blip) {
					t.Errorf("%s evicted %s over a 3 s blip", id, blip)
				}
			}
		})
	}
}
