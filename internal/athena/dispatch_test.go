package athena

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/simclock"
	"athena/internal/transport"
	"athena/internal/trust"
)

// The node under test is the middle of the line a – b – c, on a transport
// that records what it is asked to send and timers that never fire, so the
// only thing that happens is the one frame handed to handleMessage.

type sentFrame struct {
	to       string
	size     int64
	priority int
	payload  any
}

type recTransport struct{ sent []sentFrame }

var (
	_ transport.Transport      = (*recTransport)(nil)
	_ transport.PrioritySender = (*recTransport)(nil)
)

func (r *recTransport) Self() string                 { return "b" }
func (r *recTransport) Neighbors() []string          { return []string{"a", "c"} }
func (r *recTransport) SetHandler(transport.Handler) {}
func (r *recTransport) Clock() simclock.Clock        { return fixedClock{} }
func (r *recTransport) Send(to string, size int64, payload any) error {
	return r.SendPriority(to, size, 0, payload)
}
func (r *recTransport) SendPriority(to string, size int64, priority int, payload any) error {
	r.sent = append(r.sent, sentFrame{to, size, priority, payload})
	return nil
}

type fixedClock struct{}

func (fixedClock) Now() time.Time { return tBase }

type noTimers struct{}

func (noTimers) After(time.Duration, func())            {}
func (noTimers) AfterArg(time.Duration, func(any), any) {}

func dispatchDesc(id string) object.Descriptor {
	return object.Descriptor{
		Name: names.MustParse("/cam/" + id), Size: 1000, Source: id,
		Labels: []string{"l" + id}, Validity: time.Minute, ProbTrue: 0.8,
	}
}

// dispatchModes are the four nodes a frame can arrive at, and which of the
// frame owners are on at each.
var dispatchModes = []struct {
	name string
	on   map[string]bool
	set  func(*Config)
}{
	{"static", map[string]bool{}, func(*Config) {}},
	{"flood", map[string]bool{"flood": true, "member": true}, func(c *Config) {
		c.HeartbeatInterval = time.Second
	}},
	{"gossip", map[string]bool{"member": true, "swim": true}, func(c *Config) {
		c.HeartbeatInterval, c.GossipFanout = time.Second, 2
	}},
	{"sharded", map[string]bool{"member": true, "swim": true, "shard": true}, func(c *Config) {
		c.HeartbeatInterval, c.GossipFanout, c.Shards, c.ShardReplicas = time.Second, 2, 4, 2
	}},
}

func newDispatchNode(t *testing.T, set func(*Config)) (*Node, *recTransport) {
	t.Helper()
	rec := &recTransport{}
	auth := trust.NewAuthority()
	desc := dispatchDesc("b")
	cfg := Config{
		ID: "b", Transport: rec, Router: &StaticRouter{Self: "b"}, Timers: noTimers{},
		Scheme:    SchemeLVF,
		Directory: NewDirectory([]object.Descriptor{dispatchDesc("a"), desc, dispatchDesc("c")}),
		Authority: auth, Signer: auth.Register("b", []byte("k-b")), Policy: trust.TrustAll(),
		Descriptor: &desc,
	}
	set(&cfg)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, rec
}

// ctlFrame is one way a membership or shard frame reaches a node: who owns
// it, how it is addressed, and how to tell that a node applied it. A Sync
// frame has two rows, since its scope decides its owner.
type ctlFrame struct {
	owner string // "flood", "member" (either protocol), "swim" or "shard"
	// family is the forwarding rule: "local" frames carry no To; "sync"
	// frames are routed only when To is set; "probe" and "shard" frames
	// are always routed, and a probe from this node itself is dropped.
	family string
	mk     func(from, to string) frame
	// applied reports whether the node handled the frame itself (nil: the
	// frame, as built here, leaves no trace even when handled).
	applied func(n *Node, sent []sentFrame) bool
}

func ctlFrames() map[string]ctlFrame {
	news := []Advertisement{advertisementOf(dispatchDesc("z"), 1)}
	ups := []MemberUpdate{{Adv: news[0]}}
	learnedZ := func(n *Node, _ []sentFrame) bool { return n.Directory().Has("z") }
	sentTo := func(to, typ string) func(*Node, []sentFrame) bool {
		return func(_ *Node, sent []sentFrame) bool {
			for _, s := range sent {
				if s.to == to && fmt.Sprintf("%T", s.payload) == typ {
					return true
				}
			}
			return false
		}
	}
	return map[string]ctlFrame{
		"Heartbeat": {"flood", "local",
			func(from, _ string) frame { return &Heartbeat{Node: from, Beat: 1, AdvSeq: 1} },
			sentTo("c", "*athena.Heartbeat")}, // re-flooded away from its sender
		"PeerJoin": {"member", "local",
			func(from, _ string) frame { return &PeerJoin{Node: from, Adverts: news} }, learnedZ},
		"PeerJoinAck": {"member", "local",
			func(from, _ string) frame { return &PeerJoinAck{Node: from, Adverts: news} }, learnedZ},
		"AdvertGossip": {"member", "sync",
			func(_, to string) frame { return &AdvertGossip{To: to, Adverts: news} }, learnedZ},
		// A request carries no records: a node answers it.
		"SyncRequest": {"member", "sync",
			func(from, to string) frame { return &SyncRequest{From: from, To: to} },
			sentTo("a", "*athena.SyncResponse")},
		"SyncResponse": {"member", "sync",
			func(from, to string) frame { return &SyncResponse{From: from, To: to, Adverts: news} }, learnedZ},
		"Ping": {"swim", "probe",
			func(from, to string) frame { return &Ping{From: from, To: to, Seq: 1, Updates: ups} }, learnedZ},
		"Ack": {"swim", "probe",
			func(from, to string) frame { return &Ack{From: from, To: to, Seq: 1, Updates: ups} }, learnedZ},
		"PingReq": {"swim", "probe",
			func(from, to string) frame {
				return &PingReq{From: from, To: to, Target: "c", Seq: 1, Updates: ups}
			}, learnedZ},
		"ShardLookup": {"shard", "shard",
			func(from, to string) frame { return &ShardLookup{From: from, To: to, Shard: 1, Nonce: 1} },
			func(n *Node, _ []sentFrame) bool { return n.Stats().ShardServed == 1 }},
		"ShardLookupReply": {"shard", "shard",
			func(from, to string) frame { return &ShardLookupReply{From: from, To: to, Nonce: 1} },
			nil},
		// A scoped Sync is the sharded directory's: a member node without
		// sharding drops it, and does not forward it.
		"SyncRequest/scoped": {"shard", "shard",
			func(from, to string) frame {
				return &SyncRequest{From: from, To: to, Shards: []uint32{0, 1, 2, 3}}
			}, sentTo("a", "*athena.SyncResponse")},
		"SyncResponse/scoped": {"shard", "shard",
			func(from, to string) frame {
				return &SyncResponse{From: from, To: to, Shards: []uint32{0, 1, 2, 3}, Adverts: news}
			}, learnedZ},
	}
}

// TestControlFrameDispatch pins what handleMessage does with each of the 11
// membership and shard frame types before any handler runs: which component
// must be on, and each family's forwarding rule.
func TestControlFrameDispatch(t *testing.T) {
	frames := ctlFrames()
	types := make(map[string]bool)
	for _, f := range frames {
		types[fmt.Sprintf("%T", f.mk("a", "b"))] = true
	}
	if len(types) != 11 {
		t.Fatalf("table has %d frame types, want 11", len(types))
	}
	for name, f := range frames {
		for _, mode := range dispatchModes {
			// deliver hands b one frame from neighbor a and returns the node,
			// what it sent, and its counters and directory version before.
			deliver := func(msg frame) (*Node, []sentFrame, Stats, uint64) {
				n, rec := newDispatchNode(t, mode.set)
				stats, dirv := n.Stats(), n.Directory().Version()
				n.handleMessage("a", msg.WireSize(), msg)
				return n, rec.sent, stats, dirv
			}
			// untouched: nothing sent, no counter moved, directory as it was.
			untouched := func(what string, msg frame) {
				t.Helper()
				n, sent, stats, dirv := deliver(msg)
				if len(sent) != 0 || n.Stats() != stats || n.Directory().Version() != dirv {
					t.Errorf("%s at a %s node, %s: sent %d frames, stats %+v -> %+v, directory v%d -> v%d; want no effect",
						name, mode.name, what, len(sent), stats, n.Stats(), dirv, n.Directory().Version())
				}
			}
			// forwarded: exactly one copy, the same frame, toward `to`, charged
			// as control traffic, on the priority lane iff gossip is on — and
			// nothing else: not applied here.
			forwarded := func(what string, msg frame, to string) {
				t.Helper()
				n, sent, stats, dirv := deliver(msg)
				wantPri := 0
				if mode.on["swim"] {
					wantPri = 1
				}
				stats.ControlMsgs++
				stats.ControlBytes += msg.WireSize()
				if len(sent) != 1 || sent[0] != (sentFrame{to, msg.WireSize(), wantPri, msg}) {
					t.Errorf("%s at a %s node, %s: sent %+v, want the one frame to %q at priority %d", name, mode.name, what, sent, to, wantPri)
				}
				if n.Stats() != stats || n.Directory().Version() != dirv {
					t.Errorf("%s at a %s node, %s: stats %+v (want %+v), directory v%d (want v%d): forwarding is one control frame and nothing else",
						name, mode.name, what, n.Stats(), stats, n.Directory().Version(), dirv)
				}
			}
			handled := func(what string, msg frame) {
				t.Helper()
				if f.applied == nil {
					return
				}
				if n, sent, _, _ := deliver(msg); !f.applied(n, sent) {
					t.Errorf("%s at a %s node, %s: not applied (sent %+v)", name, mode.name, what, sent)
				}
			}

			if !mode.on[f.owner] {
				// The owner is off: dropped, wherever it was going.
				untouched("addressed here", f.mk("a", "b"))
				untouched("addressed to c", f.mk("a", "c"))
				continue
			}
			handled("addressed here", f.mk("a", "b"))
			switch f.family {
			case "sync":
				forwarded("addressed to c", f.mk("a", "c"), "c")
				handled("flooded (no To)", f.mk("a", ""))
			case "probe":
				forwarded("addressed to c", f.mk("a", "c"), "c")
				forwarded("with no To", f.mk("a", ""), "")
				untouched("this node's own, addressed to c", f.mk("b", "c"))
			case "shard":
				forwarded("addressed to c", f.mk("a", "c"), "c")
				forwarded("with no To", f.mk("a", ""), "")
			}
		}
	}
}

// TestScopedSyncWithEmptyVectorGetsScopedDelta: a node that has just
// gained a shard holds only thin records there, so its backfill request
// carries the shard and an empty seq vector. It is owed that shard's
// records and the responder's vector over it — not the whole directory an
// unscoped request with no vector is owed.
func TestScopedSyncWithEmptyVectorGetsScopedDelta(t *testing.T) {
	n, rec := newDispatchNode(t, dispatchModes[3].set) // the sharded node
	all := n.Directory().Snapshot()
	var shard uint32
	var want []Advertisement
	for s := uint32(0); s < 4; s++ {
		want = n.Directory().Delta(nil, n.shard.router.InShards([]uint32{s}))
		if len(want) > 0 && len(want) < len(all) {
			shard = s
			break
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("no shard holds some but not all of the %d records", len(all))
	}
	req := &SyncRequest{From: "a", To: "b", Shards: []uint32{shard}}
	n.handleMessage("a", req.WireSize(), req)
	if len(rec.sent) != 1 {
		t.Fatalf("sent %d frames, want the one response", len(rec.sent))
	}
	resp, ok := rec.sent[0].payload.(*SyncResponse)
	if !ok || rec.sent[0].to != "a" {
		t.Fatalf("sent %T to %q, want a *SyncResponse to a", rec.sent[0].payload, rec.sent[0].to)
	}
	if !reflect.DeepEqual(resp.Adverts, want) || len(resp.Seqs) != len(want) {
		t.Errorf("response to a scoped request with no vector: %d adverts, %d seqs; want shard %d's %d adverts and vector (the directory holds %d)",
			len(resp.Adverts), len(resp.Seqs), shard, len(want), len(all))
	}
	if !slices.Equal(resp.Shards, req.Shards) {
		t.Errorf("response scope %v, want the request's %v", resp.Shards, req.Shards)
	}
}
