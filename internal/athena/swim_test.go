package athena

import (
	"fmt"
	"math/rand"
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
			DisablePrefetch:   true,
			HeartbeatInterval: time.Second,
			HeartbeatMiss:     3,
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
				Descriptor: &desc, CacheBytes: 8 << 20, DisablePrefetch: true,
				HeartbeatInterval: time.Second, HeartbeatMiss: 3,
				GossipFanout: fanout, GossipSeed: 31,
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
