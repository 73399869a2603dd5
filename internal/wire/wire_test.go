package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"athena/internal/athena"
	"athena/internal/trust"
)

// tAt builds a codec-representable instant: the codec ships UnixNano, so
// fidelity-checked fixtures must carry no monotonic clock reading and no
// timezone beyond UTC.
func tAt(ns int64) time.Time { return time.Unix(0, ns).UTC() }

func label(name, annotator string, ns int64) trust.Label {
	return trust.Label{
		Name:      name,
		Value:     true,
		Annotator: annotator,
		Evidence:  []string{"/city/cam1#v12", "/city/cam2#v9"},
		Computed:  tAt(ns),
		Validity:  30 * time.Second,
		Signature: strings.Repeat("ab", 32),
	}
}

func advert(src string, seq uint64) athena.Advertisement {
	return athena.Advertisement{
		Source:    src,
		Name:      "/city/market/" + src,
		Size:      250_000,
		Validity:  time.Minute,
		Labels:    []string{"viable:h:1-2", "viable:v:3-1"},
		ProbTrue:  0.8,
		Seq:       seq,
		Withdrawn: false,
	}
}

func updates(n int) []athena.MemberUpdate {
	if n == 0 {
		return nil
	}
	us := make([]athena.MemberUpdate, n)
	for i := range us {
		us[i] = athena.MemberUpdate{Adv: advert("node-07", uint64(i+1)), Born: tAt(int64(1e9 * (i + 1)))}
	}
	return us
}

// sizedMessages returns one realistic instance per wire message type,
// with ids and payload shapes like those the experiments generate. Every
// message must satisfy WireSize() >= raw encoding so the padded frame
// length equals the modeled size.
func sizedMessages() []interface {
	WireSize() int64
} {
	return []interface {
		WireSize() int64
	}{
		&athena.QueryAnnounce{QueryID: "node-042/q17", Origin: "node-042", Expr: "viable:h:1-2 & viable:v:3-1 | viable:h:2-2", Deadline: tAt(9e9), TTL: 4, Hops: 1},
		&athena.ObjectRequest{QueryID: "node-042/q17", Origin: "node-042", Object: "/city/market/cam3", SourceNode: "node-017", Labels: []string{"viable:h:1-2", "viable:v:3-1"}, Prefetch: false},
		&athena.ObjectData{Object: "/city/market/cam3", Version: 12, Size: 250_000, Created: tAt(5e9), Validity: time.Minute, Labels: []string{"viable:h:1-2", "viable:v:3-1"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q17"},
		&athena.LabelShare{Records: []trust.Label{label("viable:h:1-2", "node-017", 5e9), label("viable:v:3-1", "node-017", 6e9)}, Dest: "node-042", QueryID: "node-042/q17"},
		&athena.Heartbeat{Node: "node-042", Beat: 991, AdvSeq: 7, Digest: 0xdeadbeefcafe},
		&athena.AdvertGossip{To: "node-017", Adverts: []athena.Advertisement{advert("node-03", 4), advert("node-11", 9)}},
		&athena.PeerJoin{Node: "node-042", Addr: "192.168.10.42:9042", Adverts: []athena.Advertisement{advert("node-042", 1)}},
		&athena.PeerJoinAck{Node: "node-017", Addr: "192.168.10.17:9017", Peers: map[string]string{"node-03": "192.168.10.3:9003", "node-11": "192.168.10.11:9011"}, Adverts: []athena.Advertisement{advert("node-03", 4), advert("node-17", 2)}},
		&athena.PeerLeave{Node: "node-042", Seq: 8},
		&athena.SyncRequest{From: "node-042", To: "node-017", Adverts: []athena.Advertisement{advert("node-042", 7)}, Seqs: map[string]uint64{"node-03": 9, "node-11": 19, "node-17": 5}, Labels: []trust.Label{label("viable:h:1-2", "node-017", 5e9)}},
		&athena.SyncResponse{From: "node-017", To: "node-042", Adverts: []athena.Advertisement{advert("node-17", 2)}, Seqs: map[string]uint64{"node-03": 9, "node-42": 15}, Labels: []trust.Label{label("viable:v:3-1", "node-042", 6e9)}},
		&athena.Ping{From: "node-042", To: "node-017", Seq: 31, AdvSeq: 7, Digest: 0xfeed, OnBehalf: "node-003", OnBehalfSeq: 12, Updates: updates(2)},
		&athena.Ack{From: "node-017", To: "node-042", Seq: 31, AdvSeq: 2, Digest: 0xbeef, Updates: updates(3)},
		&athena.PingReq{From: "node-042", To: "node-011", Target: "node-017", Seq: 31, Updates: updates(1)},
		&athena.ShardLookup{From: "node-042", To: "node-017", Label: "viable:h:1-2", Shard: 23, Nonce: 7771},
		&athena.ShardLookupReply{From: "node-017", To: "node-042", Label: "viable:h:1-2", Shard: 23, Nonce: 7771, Adverts: []athena.Advertisement{advert("node-03", 4), advert("node-11", 9)}},
		&athena.ShardSyncRequest{From: "node-042", To: "node-017", Shards: []uint32{3, 23, 41}, Seqs: map[string]uint64{"node-03": 9, "node-11": 19, "node-17": 5}},
		&athena.ShardSyncResponse{From: "node-017", To: "node-042", Shards: []uint32{3, 23, 41}, Adverts: []athena.Advertisement{advert("node-03", 4)}, Seqs: map[string]uint64{"node-03": 9, "node-42": 15}},
		&athena.RequestBatch{Requests: []athena.ObjectRequest{
			{QueryID: "node-042/q17", Origin: "node-042", Object: "/city/market/cam3", SourceNode: "node-017", Labels: []string{"viable:h:1-2", "viable:v:3-1"}},
			{QueryID: "node-042/q18", Origin: "node-042", Object: "/city/market/cam4", SourceNode: "node-017", Labels: []string{"viable:h:2-2"}},
			{QueryID: "node-011/q03", Origin: "node-011", Object: "/city/market/cam5", SourceNode: "node-017", Labels: []string{"viable:v:3-1"}, Prefetch: true},
		}},
		&athena.DataBatch{Items: []athena.ObjectData{
			{Object: "/city/market/cam3", Version: 12, Size: 250_000, Created: tAt(5e9), Validity: time.Minute, Labels: []string{"viable:h:1-2", "viable:v:3-1"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q17"},
			{Object: "/city/market/cam4", Version: 3, Size: 180_000, Created: tAt(6e9), Validity: time.Minute, Labels: []string{"viable:h:2-2"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q18", Background: true},
		}},
	}
}

// TestWireSizeIsFrameLength is the acceptance-criteria pin: for every
// message type, the modeled WireSize() equals the encoded frame length
// the codec actually ships.
func TestWireSizeIsFrameLength(t *testing.T) {
	var c Codec
	for _, m := range sizedMessages() {
		frame, err := c.Append(nil, "node-042", m.WireSize(), m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got := int64(len(frame)); got != m.WireSize() {
			t.Errorf("%T: encoded frame = %d bytes, WireSize() = %d", m, got, m.WireSize())
		}
	}
}

// TestRoundTripAllTypes re-decodes every realistic fixture and demands
// exact structural fidelity.
func TestRoundTripAllTypes(t *testing.T) {
	var c Codec
	for _, m := range sizedMessages() {
		frame, err := c.Append(nil, "node-042", m.WireSize(), m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		from, got, err := c.Decode(frame[4:])
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if from != "node-042" {
			t.Errorf("%T: from = %q", m, from)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T: round trip mismatch:\n got %#v\nwant %#v", m, got, m)
		}
	}
}

// TestGoldenFrameBytes pins the exact frame layout. If this test fails,
// the wire format changed: bump Version and update the golden rather
// than silently shipping frames old receivers cannot parse.
func TestGoldenFrameBytes(t *testing.T) {
	hb := &athena.Heartbeat{Node: "n1", Beat: 1, AdvSeq: 2, Digest: 3}
	frame, err := (Codec{}).Append(nil, "a", hb.WireSize(), hb)
	if err != nil {
		t.Fatal(err)
	}
	golden := "0000003c" + // length: 60 bytes follow
		"01" + // version 1
		"05" + // type: Heartbeat
		"000161" + // from: "a"
		"00026e31" + // Node: "n1"
		"0000000000000001" + // Beat
		"0000000000000002" + // AdvSeq
		"0000000000000003" + // Digest
		strings.Repeat("00", 27) // padding up to heartbeatBytes (64)
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("frame bytes changed:\n got %x\nwant %x", frame, want)
	}
}

// TestGoldenShardLookupBytes pins the shard-routed lookup's frame layout
// the same way the heartbeat golden pins the original message set.
func TestGoldenShardLookupBytes(t *testing.T) {
	m := &athena.ShardLookup{From: "n1", To: "n2", Label: "seg", Shard: 7, Nonce: 9}
	frame, err := (Codec{}).Append(nil, "a", m.WireSize(), m)
	if err != nil {
		t.Fatal(err)
	}
	golden := "0000007c" + // length: 124 bytes follow
		"01" + // version 1
		"0f" + // type: ShardLookup (15)
		"000161" + // from: "a"
		"00026e31" + // From: "n1"
		"00026e32" + // To: "n2"
		"0003736567" + // Label: "seg"
		"00000007" + // Shard (u32)
		"0000000000000009" + // Nonce
		strings.Repeat("00", 94) // padding up to shardLookupBytes (128)
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("frame bytes changed:\n got %x\nwant %x", frame, want)
	}
}

// TestGoldenRequestBatchBytes pins the coalesced frame layout the same
// way the heartbeat golden pins the original message set.
func TestGoldenRequestBatchBytes(t *testing.T) {
	m := &athena.RequestBatch{Requests: []athena.ObjectRequest{
		{QueryID: "q", Origin: "o", Object: "/x", SourceNode: "s"},
	}}
	frame, err := (Codec{}).Append(nil, "a", m.WireSize(), m)
	if err != nil {
		t.Fatal(err)
	}
	golden := "000000ac" + // length: 172 bytes follow
		"01" + // version 1
		"13" + // type: RequestBatch (19)
		"000161" + // from: "a"
		"0001" + // member count
		"000171" + // QueryID: "q"
		"00016f" + // Origin: "o"
		"00022f78" + // Object: "/x"
		"000173" + // SourceNode: "s"
		"0000" + // Labels: empty
		"00" + // Prefetch: false
		strings.Repeat("00", 149) // padding up to batchBaseBytes + batchedRequestBytes (176)
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("frame bytes changed:\n got %x\nwant %x", frame, want)
	}
}

func TestDecodeRejectsBadFrames(t *testing.T) {
	hb := &athena.Heartbeat{Node: "n1", Beat: 1}
	frame, err := (Codec{}).Append(nil, "a", hb.WireSize(), hb)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]

	t.Run("wrong version", func(t *testing.T) {
		b := append([]byte(nil), body...)
		b[0] = 99
		if _, _, err := (Codec{}).Decode(b); err == nil {
			t.Error("accepted wrong version")
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		b := append([]byte(nil), body...)
		b[1] = 200
		if _, _, err := (Codec{}).Decode(b); err == nil {
			t.Error("accepted unknown type id")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, _, err := (Codec{}).Decode(body[:8]); err == nil {
			t.Error("accepted truncated frame")
		}
	})
	t.Run("garbage padding", func(t *testing.T) {
		b := append([]byte(nil), body...)
		b[len(b)-1] = 0xff
		if _, _, err := (Codec{}).Decode(b); err == nil {
			t.Error("accepted non-zero padding")
		}
	})
}

// paddedData encodes an ObjectData frame carrying exactly pad bytes of
// padding and returns its body with the offset the padding starts at.
func paddedData(t testing.TB, pad int) (body []byte, padStart int) {
	t.Helper()
	m := &athena.ObjectData{Object: "/city/market/cam3", Version: 12, Size: int64(pad), Labels: []string{"viable:h:1-2"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q17"}
	raw, err := (Codec{}).Append(nil, "node-017", 0, m)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := (Codec{}).Append(nil, "node-017", int64(len(raw)+pad), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != len(raw)+pad {
		t.Fatalf("frame = %d bytes, want %d raw + %d padding", len(frame), len(raw), pad)
	}
	return frame[4:], len(raw) - 4
}

// TestPaddingVerifiedAtEveryOffset flips one padding byte of a bulk frame
// at each place a block-wise verifier could overlook — the ends, both
// sides of every block boundary, and a tail shorter than one machine
// word — and requires ErrBadFrame each time.
func TestPaddingVerifiedAtEveryOffset(t *testing.T) {
	const block = len(zeroPage)
	const pad = 1<<20 + 5 // whole blocks, then a 5-byte tail
	body, start := paddedData(t, pad)
	if _, _, err := (Codec{}).Decode(body); err != nil {
		t.Fatalf("clean frame: %v", err)
	}
	offsets := []int{0, pad - 1}
	for b := block; b < pad; b += block {
		offsets = append(offsets, b-1, b)
	}
	for o := pad - 5; o < pad; o++ {
		offsets = append(offsets, o)
	}
	for _, o := range offsets {
		body[start+o] = 0x01
		if _, _, err := (Codec{}).Decode(body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("non-zero byte at padding offset %d of %d: err = %v, want ErrBadFrame", o, pad, err)
		}
		body[start+o] = 0
	}
}

func TestZeroPaddingOfAnyLengthDecodes(t *testing.T) {
	const block = len(zeroPage)
	for _, pad := range []int{0, 1, 7, 8, block - 1, block, block + 1} {
		body, _ := paddedData(t, pad)
		if _, _, err := (Codec{}).Decode(body); err != nil {
			t.Errorf("%d bytes of zero padding: %v", pad, err)
		}
	}
}

func TestOversizeEncodingShipsUnpadded(t *testing.T) {
	// A message whose raw encoding exceeds its modeled size must ship
	// as-is; the receiver reports actual bytes, never the stale model.
	m := &athena.QueryAnnounce{QueryID: "q", Origin: "o", Expr: strings.Repeat("x", 300)}
	frame, err := (Codec{}).Append(nil, "a", 10 /* bogus model */, m)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(frame)) <= 300 {
		t.Fatalf("frame = %d bytes, expected the raw encoding to win over the 10-byte model", len(frame))
	}
	_, got, err := (Codec{}).Decode(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Error("oversize round trip mismatch")
	}
}

func TestZeroTimeRoundTrips(t *testing.T) {
	m := &athena.ObjectData{Object: "/x", Created: time.Time{}}
	frame, err := (Codec{}).Append(nil, "a", m.WireSize(), m)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := (Codec{}).Decode(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.(*athena.ObjectData).Created.IsZero() {
		t.Error("zero time did not round trip")
	}
}

// roundTrip encodes msg, decodes it back, and fails on any loss of
// fidelity. Shared by all the per-type fuzz targets.
func roundTrip(t *testing.T, msg interface{ WireSize() int64 }) {
	t.Helper()
	var c Codec
	frame, err := c.Append(nil, "fuzz-node", msg.WireSize(), msg)
	if err != nil {
		// Oversized strings/slices are legal encode rejections, not bugs.
		return
	}
	from, got, err := c.Decode(frame[4:])
	if err != nil {
		t.Fatalf("decode of freshly encoded %T: %v", msg, err)
	}
	if from != "fuzz-node" {
		t.Fatalf("from = %q", from)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
	}
}

// fuzzTime maps an arbitrary int64 to a codec-representable instant,
// avoiding the zero-time sentinel.
func fuzzTime(ns int64) time.Time {
	if ns == math.MinInt64 {
		ns = 0
	}
	return tAt(ns)
}

// fuzzStrings derives a bounded label slice from fuzz inputs (nil when
// n == 0, matching the codec's nil-for-empty decoding).
func fuzzStrings(s string, n uint8) []string {
	k := int(n % 4)
	if k == 0 {
		return nil
	}
	out := make([]string, k)
	for i := range out {
		out[i] = s
	}
	return out
}

func fuzzAdverts(src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool) []athena.Advertisement {
	k := int(count % 3)
	if k == 0 {
		return nil
	}
	out := make([]athena.Advertisement, k)
	for i := range out {
		out[i] = athena.Advertisement{
			Source: src, Name: name, Size: size, Validity: time.Duration(seq),
			Labels: fuzzStrings(lbl, lbls), ProbTrue: 0.5, Seq: seq, Withdrawn: withdrawn,
		}
	}
	return out
}

func fuzzUpdates(src, name string, count uint8, seq uint64, dead bool, born int64) []athena.MemberUpdate {
	k := int(count % 3)
	if k == 0 {
		return nil
	}
	out := make([]athena.MemberUpdate, k)
	for i := range out {
		out[i] = athena.MemberUpdate{
			Adv:  athena.Advertisement{Source: src, Name: name, Seq: seq},
			Dead: dead,
			Born: fuzzTime(born),
		}
	}
	return out
}

func fuzzSeqs(k1, k2 string, n uint8) map[string]uint64 {
	if n%2 == 0 {
		return nil
	}
	return map[string]uint64{k1: 1, k2: 9}
}

func fuzzLabels(name, annot, ev, sig string, n uint8, ns int64, validity int64, val bool) []trust.Label {
	k := int(n % 3)
	if k == 0 {
		return nil
	}
	out := make([]trust.Label, k)
	for i := range out {
		out[i] = trust.Label{
			Name: name, Value: val, Annotator: annot,
			Evidence: fuzzStrings(ev, n), Computed: fuzzTime(ns),
			Validity: time.Duration(validity), Signature: sig,
		}
	}
	return out
}

func FuzzQueryAnnounce(f *testing.F) {
	f.Add("q1", "origin", "a & b", int64(5e9), 4, 1)
	f.Add("", "", "", int64(math.MinInt64), -1, 0)
	f.Fuzz(func(t *testing.T, id, origin, expr string, deadline int64, ttl, hops int) {
		roundTrip(t, &athena.QueryAnnounce{QueryID: id, Origin: origin, Expr: expr, Deadline: fuzzTime(deadline), TTL: ttl, Hops: hops})
	})
}

func FuzzObjectRequest(f *testing.F) {
	f.Add("q1", "origin", "/city/cam1", "src", "lbl", uint8(2), true)
	f.Fuzz(func(t *testing.T, id, origin, obj, src, lbl string, n uint8, prefetch bool) {
		roundTrip(t, &athena.ObjectRequest{QueryID: id, Origin: origin, Object: obj, SourceNode: src, Labels: fuzzStrings(lbl, n), Prefetch: prefetch})
	})
}

func FuzzObjectData(f *testing.F) {
	f.Add("/city/cam1", uint64(3), int64(1000), int64(5e9), int64(1e9), "lbl", uint8(1), "src", "origin", "q1", false)
	f.Add("/city/cam1", uint64(3), int64(1<<20+5), int64(5e9), int64(1e9), "lbl", uint8(1), "src", "origin", "q1", false)
	f.Fuzz(func(t *testing.T, obj string, version uint64, size, created, validity int64, lbl string, n uint8, src, origin, id string, bg bool) {
		roundTrip(t, &athena.ObjectData{Object: obj, Version: version, Size: size, Created: fuzzTime(created), Validity: time.Duration(validity), Labels: fuzzStrings(lbl, n), SourceNode: src, Origin: origin, QueryID: id, Background: bg})
	})
}

func FuzzLabelShare(f *testing.F) {
	f.Add("lbl", "annot", "/ev", "sig", uint8(2), int64(5e9), int64(1e9), true, "dest", "q1")
	f.Fuzz(func(t *testing.T, name, annot, ev, sig string, n uint8, ns, validity int64, val bool, dest, id string) {
		roundTrip(t, &athena.LabelShare{Records: fuzzLabels(name, annot, ev, sig, n, ns, validity, val), Dest: dest, QueryID: id})
	})
}

func FuzzHeartbeat(f *testing.F) {
	f.Add("n1", uint64(1), uint64(2), uint64(3))
	f.Fuzz(func(t *testing.T, node string, beat, advSeq, digest uint64) {
		roundTrip(t, &athena.Heartbeat{Node: node, Beat: beat, AdvSeq: advSeq, Digest: digest})
	})
}

func FuzzAdvertGossip(f *testing.F) {
	f.Add("to", "src", "/name", "lbl", uint8(2), uint8(1), int64(100), uint64(3), false)
	f.Fuzz(func(t *testing.T, to, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool) {
		roundTrip(t, &athena.AdvertGossip{To: to, Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn)})
	})
}

func FuzzPeerJoin(f *testing.F) {
	f.Add("n1", "127.0.0.1:9", "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false)
	f.Fuzz(func(t *testing.T, node, addr, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool) {
		roundTrip(t, &athena.PeerJoin{Node: node, Addr: addr, Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn)})
	})
}

func FuzzPeerJoinAck(f *testing.F) {
	f.Add("n1", "127.0.0.1:9", "p1", "p2", uint8(1), "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false)
	f.Fuzz(func(t *testing.T, node, addr, k1, k2 string, pn uint8, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool) {
		var peers map[string]string
		if pn%2 == 1 && k1 != k2 {
			peers = map[string]string{k1: addr, k2: addr}
		}
		roundTrip(t, &athena.PeerJoinAck{Node: node, Addr: addr, Peers: peers, Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn)})
	})
}

func FuzzPeerLeave(f *testing.F) {
	f.Add("n1", uint64(4))
	f.Fuzz(func(t *testing.T, node string, seq uint64) {
		roundTrip(t, &athena.PeerLeave{Node: node, Seq: seq})
	})
}

func FuzzSyncRequest(f *testing.F) {
	f.Add("from", "to", "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false, "k1", "k2", uint8(1), "annot", "sig", int64(5e9))
	f.Fuzz(func(t *testing.T, from, to, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool, k1, k2 string, n uint8, annot, sig string, ns int64) {
		if k1 == k2 {
			k2 = k1 + "x"
		}
		roundTrip(t, &athena.SyncRequest{From: from, To: to, Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn), Seqs: fuzzSeqs(k1, k2, n), Labels: fuzzLabels(lbl, annot, name, sig, n, ns, size, withdrawn)})
	})
}

func FuzzSyncResponse(f *testing.F) {
	f.Add("from", "to", "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false, "k1", "k2", uint8(1), "annot", "sig", int64(5e9))
	f.Fuzz(func(t *testing.T, from, to, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool, k1, k2 string, n uint8, annot, sig string, ns int64) {
		if k1 == k2 {
			k2 = k1 + "x"
		}
		roundTrip(t, &athena.SyncResponse{From: from, To: to, Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn), Seqs: fuzzSeqs(k1, k2, n), Labels: fuzzLabels(lbl, annot, name, sig, n, ns, size, withdrawn)})
	})
}

func FuzzPing(f *testing.F) {
	f.Add("from", "to", uint64(1), uint64(2), uint64(3), "behalf", uint64(4), "src", "/name", uint8(1), uint64(5), false, int64(5e9))
	f.Fuzz(func(t *testing.T, from, to string, seq, advSeq, digest uint64, onBehalf string, obSeq uint64, src, name string, count uint8, useq uint64, dead bool, born int64) {
		roundTrip(t, &athena.Ping{From: from, To: to, Seq: seq, AdvSeq: advSeq, Digest: digest, OnBehalf: onBehalf, OnBehalfSeq: obSeq, Updates: fuzzUpdates(src, name, count, useq, dead, born)})
	})
}

func FuzzAck(f *testing.F) {
	f.Add("from", "to", uint64(1), uint64(2), uint64(3), "src", "/name", uint8(1), uint64(5), false, int64(5e9))
	f.Fuzz(func(t *testing.T, from, to string, seq, advSeq, digest uint64, src, name string, count uint8, useq uint64, dead bool, born int64) {
		roundTrip(t, &athena.Ack{From: from, To: to, Seq: seq, AdvSeq: advSeq, Digest: digest, Updates: fuzzUpdates(src, name, count, useq, dead, born)})
	})
}

func FuzzPingReq(f *testing.F) {
	f.Add("from", "to", "target", uint64(1), "src", "/name", uint8(1), uint64(5), false, int64(5e9))
	f.Fuzz(func(t *testing.T, from, to, target string, seq uint64, src, name string, count uint8, useq uint64, dead bool, born int64) {
		roundTrip(t, &athena.PingReq{From: from, To: to, Target: target, Seq: seq, Updates: fuzzUpdates(src, name, count, useq, dead, born)})
	})
}

// fuzzShards derives a bounded shard-id slice from fuzz inputs (nil when
// the count folds to 0, matching the codec's nil-for-empty decoding).
func fuzzShards(base uint32, n uint8) []uint32 {
	k := int(n % 4)
	if k == 0 {
		return nil
	}
	out := make([]uint32, k)
	for i := range out {
		out[i] = base + uint32(i)
	}
	return out
}

func FuzzShardLookup(f *testing.F) {
	f.Add("from", "to", "lbl", uint32(3), uint64(9))
	f.Fuzz(func(t *testing.T, from, to, lbl string, shard uint32, nonce uint64) {
		roundTrip(t, &athena.ShardLookup{From: from, To: to, Label: lbl, Shard: shard, Nonce: nonce})
	})
}

func FuzzShardLookupReply(f *testing.F) {
	f.Add("from", "to", "lbl", uint32(3), uint64(9), "src", "/name", uint8(1), uint8(1), int64(5), uint64(1), false)
	f.Fuzz(func(t *testing.T, from, to, lbl string, shard uint32, nonce uint64, src, name string, count, lbls uint8, size int64, seq uint64, withdrawn bool) {
		roundTrip(t, &athena.ShardLookupReply{From: from, To: to, Label: lbl, Shard: shard, Nonce: nonce, Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn)})
	})
}

func FuzzShardSyncRequest(f *testing.F) {
	f.Add("from", "to", uint32(3), uint8(2), "k1", "k2", uint8(1))
	f.Fuzz(func(t *testing.T, from, to string, base uint32, sn uint8, k1, k2 string, n uint8) {
		if k1 == k2 {
			k2 = k1 + "x"
		}
		roundTrip(t, &athena.ShardSyncRequest{From: from, To: to, Shards: fuzzShards(base, sn), Seqs: fuzzSeqs(k1, k2, n)})
	})
}

func FuzzShardSyncResponse(f *testing.F) {
	f.Add("from", "to", uint32(3), uint8(2), "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false, "k1", "k2", uint8(1))
	f.Fuzz(func(t *testing.T, from, to string, base uint32, sn uint8, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool, k1, k2 string, n uint8) {
		if k1 == k2 {
			k2 = k1 + "x"
		}
		roundTrip(t, &athena.ShardSyncResponse{From: from, To: to, Shards: fuzzShards(base, sn), Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn), Seqs: fuzzSeqs(k1, k2, n)})
	})
}

func FuzzRequestBatch(f *testing.F) {
	f.Add("q1", "origin", "/city/cam1", "src", "lbl", uint8(2), true, uint8(2))
	f.Fuzz(func(t *testing.T, id, origin, obj, src, lbl string, n uint8, prefetch bool, count uint8) {
		k := int(count % 4)
		var reqs []athena.ObjectRequest
		for i := 0; i < k; i++ {
			reqs = append(reqs, athena.ObjectRequest{QueryID: id, Origin: origin, Object: obj, SourceNode: src, Labels: fuzzStrings(lbl, n), Prefetch: prefetch})
		}
		roundTrip(t, &athena.RequestBatch{Requests: reqs})
	})
}

func FuzzDataBatch(f *testing.F) {
	f.Add("/city/cam1", uint64(3), int64(1000), int64(5e9), int64(1e9), "lbl", uint8(1), "src", "origin", "q1", false, uint8(2))
	f.Fuzz(func(t *testing.T, obj string, version uint64, size, created, validity int64, lbl string, n uint8, src, origin, id string, bg bool, count uint8) {
		k := int(count % 4)
		var items []athena.ObjectData
		for i := 0; i < k; i++ {
			items = append(items, athena.ObjectData{Object: obj, Version: version, Size: size, Created: fuzzTime(created), Validity: time.Duration(validity), Labels: fuzzStrings(lbl, n), SourceNode: src, Origin: origin, QueryID: id, Background: bg})
		}
		roundTrip(t, &athena.DataBatch{Items: items})
	})
}

// FuzzDecode throws arbitrary bytes at the decoder: it must reject or
// parse, never panic or over-allocate.
func FuzzDecode(f *testing.F) {
	hb := &athena.Heartbeat{Node: "n1", Beat: 1}
	frame, _ := (Codec{}).Append(nil, "a", hb.WireSize(), hb)
	f.Add(frame[4:])
	f.Add([]byte{1, 5, 0, 0})
	f.Add([]byte{})
	bulk, _ := paddedData(f, 1<<20+5)
	f.Add(bulk)
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _, _ = (Codec{}).Decode(body)
	})
}

// TestConstantsCoverRawEncoding checks the audited base constants: no
// realistic message may raw-encode past its modeled size, or netsim's
// tables underprice the wire.
func TestConstantsCoverRawEncoding(t *testing.T) {
	var c Codec
	for _, m := range sizedMessages() {
		buf, err := c.Append(nil, "node-042", 0 /* no padding */, m)
		if err != nil {
			t.Fatal(err)
		}
		if raw := int64(len(buf)); raw > m.WireSize() {
			t.Errorf("%T: raw encoding %d exceeds WireSize %d", m, raw, m.WireSize())
		}
	}
}

// mapFields counts the message struct's map fields. Encoding a map sorts
// its keys into a scratch slice, one allocation; nothing else in an
// encode allocates.
func mapFields(m any) int {
	n := 0
	t := reflect.TypeOf(m).Elem()
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() == reflect.Map {
			n++
		}
	}
	return n
}

// TestEncodeDoesNotAllocate holds the encoder's state on the stack. The
// layout functions are reached by static calls for this reason: behind a
// closure table, an interface or a generic helper the state escapes and
// every frame costs an allocation. Frames are encoded unpadded because
// under -race the compiler does not fuse the padding's append-of-make;
// the padded path is held by ci.sh's BenchmarkEncodeSmall gate.
func TestEncodeDoesNotAllocate(t *testing.T) {
	var c Codec
	for _, m := range sizedMessages() {
		buf := make([]byte, 0, m.WireSize())
		want := float64(mapFields(m))
		got := testing.AllocsPerRun(100, func() {
			if _, err := c.Append(buf, "node-042", 0, m); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%T: %v allocations per encode, want %v", m, got, want)
		}
	}
}

// TestEncodeLeavesMessageUntouched: encoding only reads. A flood hands
// one message pointer to several neighbours' send paths at once, so the
// second half encodes a shared *AdvertGossip from two goroutines for the
// race detector to watch.
func TestEncodeLeavesMessageUntouched(t *testing.T) {
	var c Codec
	want := sizedMessages()
	for i, m := range sizedMessages() {
		if _, err := c.Append(nil, "node-042", m.WireSize(), m); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(m, want[i]) {
			t.Errorf("%T: encoding changed the message:\n got %#v\nwant %#v", m, m, want[i])
		}
	}

	shared := &athena.AdvertGossip{To: "node-017", Adverts: []athena.Advertisement{advert("node-03", 4), advert("node-11", 9)}}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.Append(nil, "node-042", shared.WireSize(), shared); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// benchData is the bulk frame the socket path spends its codec time on:
// a 500 KB object, almost all of it padding.
var benchData = &athena.ObjectData{Object: "/city/market/cam3", Version: 12, Size: 500_000, Created: tAt(5e9), Validity: time.Minute, Labels: []string{"viable:h:1-2", "viable:v:3-1"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q17"}

func BenchmarkEncodeObjectData(b *testing.B) {
	var c Codec
	buf := make([]byte, 0, benchData.WireSize())
	b.SetBytes(benchData.WireSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := c.Append(buf[:0], "node-017", benchData.WireSize(), benchData)
		if err != nil {
			b.Fatal(err)
		}
		buf = frame
	}
}

func BenchmarkDecodeObjectData(b *testing.B) {
	var c Codec
	frame, err := c.Append(nil, "node-017", benchData.WireSize(), benchData)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decode(frame[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// smallFrames are the frames whose cost is per field, not per byte: a
// request, a two-record label share, and a probe carrying four membership
// updates.
var smallFrames = []struct {
	name string
	msg  interface{ WireSize() int64 }
}{
	{"request", &athena.ObjectRequest{QueryID: "node-042/q17", Origin: "node-042", Object: "/city/market/cam3", SourceNode: "node-017", Labels: []string{"viable:h:1-2", "viable:v:3-1"}}},
	{"share", &athena.LabelShare{Records: []trust.Label{label("viable:h:1-2", "node-017", 5e9), label("viable:v:3-1", "node-017", 6e9)}, Dest: "node-042", QueryID: "node-042/q17"}},
	{"ping4", &athena.Ping{From: "node-042", To: "node-017", Seq: 31, AdvSeq: 7, Digest: 0xfeed, Updates: updates(4)}},
}

// benchSink keeps the compiler from discarding a benchmarked call.
var benchSink any

func BenchmarkEncodeSmall(b *testing.B) {
	var c Codec
	for _, f := range smallFrames {
		b.Run(f.name, func(b *testing.B) {
			buf := make([]byte, 0, f.msg.WireSize())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame, err := c.Append(buf[:0], "node-042", f.msg.WireSize(), f.msg)
				if err != nil {
					b.Fatal(err)
				}
				buf = frame
			}
		})
	}
}

func BenchmarkDecodeSmall(b *testing.B) {
	var c Codec
	for _, f := range smallFrames {
		b.Run(f.name, func(b *testing.B) {
			frame, err := c.Append(nil, "node-042", f.msg.WireSize(), f.msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, m, err := c.Decode(frame[4:])
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}
