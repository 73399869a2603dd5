package athena_test

import (
	"testing"
	"time"

	"athena"
)

var simStart = time.Date(2026, 1, 1, 9, 0, 0, 0, time.UTC)

// simLine wires base -- relay -- camera over 1 Mbps links, the camera
// advertising one 100 KB object that evidences clear, and returns the
// network and the base node.
func simLine(t *testing.T, retries bool) (*athena.SimNetwork, *athena.Node) {
	t.Helper()
	net := athena.NewSimNetwork(simStart)
	for _, l := range [][2]string{{"base", "relay"}, {"relay", "camera"}} {
		if err := net.AddLink(l[0], l[1], 125_000, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	cam := &athena.SourceDescriptor{
		Name: athena.MustParseName("/field/cam"), Size: 100_000, Validity: 2 * time.Minute,
		Labels: []string{"clear"}, Source: "camera", ProbTrue: 0.5,
	}
	for _, cfg := range []athena.SimNodeConfig{
		{ID: "base", World: worldTrue{}, DisableRetries: !retries},
		{ID: "relay", World: worldTrue{}, DisableRetries: !retries},
		{ID: "camera", World: worldTrue{}, Source: cam, DisableRetries: !retries},
	} {
		if err := net.AddNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	base, err := net.Node("base")
	if err != nil {
		t.Fatal(err)
	}
	return net, base
}

// decide issues "clear" at base with a 20 s deadline, runs the network
// 25 s and returns the one result.
func decide(t *testing.T, net *athena.SimNetwork, base *athena.Node) athena.QueryResult {
	t.Helper()
	if _, err := base.QueryInit(athena.ToDNF(athena.MustParseExpr("clear")), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := base.Results()
	if len(res) != 1 {
		t.Fatalf("results = %+v, want one", res)
	}
	return res[0]
}

// A request forwarded into a link that is down is lost. With retries the
// relay retransmits once the link heals and the query resolves; without,
// it waits out its deadline.
func TestSimNetworkLinkOutage(t *testing.T) {
	for _, tc := range []struct {
		retries bool
		want    athena.DecisionStatus
	}{{true, athena.ResolvedTrue}, {false, athena.Expired}} {
		net, base := simLine(t, tc.retries)
		if err := net.ScheduleLinkOutage("relay", "camera", net.Now(), 4*time.Second); err != nil {
			t.Fatal(err)
		}
		if got := decide(t, net, base).Status; got != tc.want {
			t.Errorf("retries %v: status %v, want %v", tc.retries, got, tc.want)
		}
		m := net.Metrics()
		if timeouts := m.Counter("retry.timeouts"); tc.retries != (timeouts > 0) {
			t.Errorf("retries %v: %d request timeouts", tc.retries, timeouts)
		}
	}
	net, _ := simLine(t, true)
	if err := net.ScheduleLinkOutage("relay", "nowhere", net.Now(), time.Second); err == nil {
		t.Error("outage of a link that does not exist accepted")
	}
}

// Seeded loss drops messages, the same ones on every run; retransmission
// still resolves the query.
func TestSimNetworkLoss(t *testing.T) {
	var lost [2]int64
	for i := range lost {
		net, base := simLine(t, true)
		if err := net.SetLoss(0.25); err == nil {
			t.Fatal("loss accepted before SeedFailures")
		}
		net.SeedFailures(4)
		if err := net.SetLoss(0.25); err != nil {
			t.Fatal(err)
		}
		if got := decide(t, net, base).Status; got != athena.ResolvedTrue {
			t.Errorf("status under loss %v, want %v", got, athena.ResolvedTrue)
		}
		lost[i] = net.MessagesLost()
	}
	if lost[0] == 0 || lost[0] != lost[1] {
		t.Errorf("messages lost %v, want the same positive count twice", lost)
	}
}

// With membership on, a source that fails is evicted from the others'
// directories, and once it returns it re-announces itself and is back.
func TestSimNetworkChurnedNodeRejoins(t *testing.T) {
	net := athena.NewSimNetwork(simStart)
	if err := net.EnableMembership(0); err == nil {
		t.Error("a zero membership interval accepted")
	}
	if err := net.EnableMembership(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, l := range [][2]string{{"base", "hub"}, {"hub", "camA"}, {"hub", "camB"}} {
		if err := net.AddLink(l[0], l[1], 125_000, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"base", "hub", "camA", "camB"} {
		cfg := athena.SimNodeConfig{ID: id, World: worldTrue{}}
		if id != "base" && id != "hub" {
			cfg.Source = &athena.SourceDescriptor{
				Name: athena.MustParseName("/city/" + id), Size: 10_000, Validity: time.Minute,
				Labels: []string{"clear"}, Source: id, ProbTrue: 0.5,
			}
		}
		if err := net.AddNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	base, err := net.Node("base")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.EnableMembership(time.Second); err == nil {
		t.Error("EnableMembership after Build accepted")
	}
	if err := net.ScheduleNodeOutage("camA", simStart.Add(5*time.Second), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	dir := base.Directory()
	if dir.Has("camA") || !dir.Has("camB") {
		t.Errorf("15 s into camA's outage base holds camA %v, camB %v", dir.Has("camA"), dir.Has("camB"))
	}
	if err := net.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !dir.Has("camA") {
		t.Error("10 s after camA returned base has not readmitted it")
	}
	m := net.Metrics()
	if m.Counter("membership.evictions") == 0 || m.Counter("membership.heartbeats_sent") == 0 {
		t.Errorf("evictions %d, heartbeats %d; want both counted",
			m.Counter("membership.evictions"), m.Counter("membership.heartbeats_sent"))
	}
}

// The three trust policies a node can be given: everyone, a listed few,
// no one.
func TestTrustPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy interface{ Trusts(string) bool }
		a, b   bool
	}{
		{"all", athena.TrustAllPolicy(), true, true},
		{"only a", athena.TrustOnlyPolicy("a"), true, false},
		{"none", athena.TrustNonePolicy(), false, false},
	} {
		if a, b := tc.policy.Trusts("a"), tc.policy.Trusts("b"); a != tc.a || b != tc.b {
			t.Errorf("%s: trusts a %v, b %v; want %v, %v", tc.name, a, b, tc.a, tc.b)
		}
	}
}

// starWithOutage builds the star base–hub–{camA, camB}, both cameras
// advertising, with membership at a 1 s period (SWIM gossip when gossip),
// and takes camA down from 5 s to 25 s. It returns the network and the
// nodes by id.
func starWithOutage(t *testing.T, gossip bool) (*athena.SimNetwork, map[string]*athena.Node) {
	t.Helper()
	net := athena.NewSimNetwork(simStart)
	if err := net.EnableMembership(time.Second); err != nil {
		t.Fatal(err)
	}
	if gossip {
		if err := net.EnableGossip(7); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"base", "hub"}, {"hub", "camA"}, {"hub", "camB"}} {
		if err := net.AddLink(l[0], l[1], 125_000, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	ids := []string{"base", "hub", "camA", "camB"}
	for _, id := range ids {
		cfg := athena.SimNodeConfig{ID: id, World: worldTrue{}}
		if id == "camA" || id == "camB" {
			cfg.Source = &athena.SourceDescriptor{
				Name: athena.MustParseName("/city/" + id), Size: 10_000, Validity: time.Minute,
				Labels: []string{"clear"}, Source: id, ProbTrue: 0.5,
			}
		}
		if err := net.AddNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make(map[string]*athena.Node)
	for _, id := range ids {
		n, err := net.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	if err := net.ScheduleNodeOutage("camA", simStart.Add(5*time.Second), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

// TestGossipStarNeverReadmits pins the second defect of ROADMAP item 28
// (P55's FOUND), and its flood twin. On the star base–hub–{camA, camB},
// camA is down 5–25 s. Under SWIM gossip its probes of camB, its only
// peer, time out while it is down, and it evicts camB at 23 s, so it
// returns holding no peer, and nobody readmits camA in the 95 s after: no
// source is left that probes it, and base and hub, which advertise
// nothing, probe only sources. Under flooded heartbeats camA's beats readmit it, and it
// holds camB again.
//
// The gossip row is today's, not a contract: item 28's PR (any sign of
// life readmits) inverts it, so that both rows read readmitted.
//
// Replay: go test . -run TestGossipStarNeverReadmits -v
func TestGossipStarNeverReadmits(t *testing.T) {
	for _, c := range []struct {
		name       string
		gossip     bool
		readmitted bool
	}{
		{"gossip", true, false},
		{"flood", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, nodes := starWithOutage(t, c.gossip)
			if err := net.Run(26 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := nodes["camA"].Directory().Has("camB"); got != c.readmitted {
				t.Errorf("a second after its return camA holds camB: %v, pinned %v", got, c.readmitted)
			}
			if err := net.Run(94 * time.Second); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"base", "hub", "camB"} {
				if got := nodes[id].Directory().Has("camA"); got != c.readmitted {
					t.Errorf("95 s after camA returned %s holds it: %v, pinned %v", id, got, c.readmitted)
				}
			}
			if got := nodes["camA"].Directory().Has("camB"); got != c.readmitted {
				t.Errorf("95 s after its return camA holds camB: %v, pinned %v", got, c.readmitted)
			}
		})
	}
}
