package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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
// with ids and payload shapes like those the experiments generate. The two
// Sync frames set every field, scope and flood payload together, which no
// node sends, so that one golden pins each layout whole. Every message
// must satisfy WireSize() >= raw encoding so the padded frame length
// equals the modeled size.
func sizedMessages() []interface {
	WireSize() int64
} {
	return []interface {
		WireSize() int64
	}{
		&athena.ObjectRequest{QueryID: "node-042/q17", Origin: "node-042", Object: "/city/market/cam3", SourceNode: "node-017", Labels: []string{"viable:h:1-2", "viable:v:3-1"}, Budget: 42 * time.Second},
		&athena.ObjectData{Object: "/city/market/cam3", Version: 12, Size: 250_000, Created: tAt(5e9), Validity: time.Minute, Labels: []string{"viable:h:1-2", "viable:v:3-1"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q17"},
		&athena.LabelShare{Records: []trust.Label{label("viable:h:1-2", "node-017", 5e9), label("viable:v:3-1", "node-017", 6e9)}, Dest: "node-042", QueryID: "node-042/q17"},
		&athena.Heartbeat{Node: "node-042", Beat: 991, AdvSeq: 7, Digest: 0xdeadbeefcafe},
		&athena.AdvertGossip{To: "node-017", Adverts: []athena.Advertisement{advert("node-03", 4), advert("node-11", 9)}},
		&athena.PeerJoin{Node: "node-042", Addr: "192.168.10.42:9042", Adverts: []athena.Advertisement{advert("node-042", 1)}},
		&athena.PeerJoinAck{Node: "node-017", Addr: "192.168.10.17:9017", Peers: map[string]string{"node-03": "192.168.10.3:9003", "node-11": "192.168.10.11:9011"}, Adverts: []athena.Advertisement{advert("node-03", 4), advert("node-17", 2)}},
		&athena.SyncRequest{From: "node-042", To: "node-017", Shards: []uint32{3, 23, 41}, Adverts: []athena.Advertisement{advert("node-042", 7)}, Seqs: map[string]uint64{"node-03": 9, "node-11": 19, "node-17": 5}, Labels: []trust.Label{label("viable:h:1-2", "node-017", 5e9)}},
		&athena.SyncResponse{From: "node-017", To: "node-042", Shards: []uint32{3, 23, 41}, Adverts: []athena.Advertisement{advert("node-17", 2)}, Seqs: map[string]uint64{"node-03": 9, "node-42": 15}, Labels: []trust.Label{label("viable:v:3-1", "node-042", 6e9)}},
		&athena.Ping{From: "node-042", To: "node-017", Seq: 31, AdvSeq: 7, Digest: 0xfeed, OnBehalf: "node-003", OnBehalfSeq: 12, Updates: updates(2)},
		&athena.Ack{From: "node-017", To: "node-042", Seq: 31, AdvSeq: 2, Digest: 0xbeef, Updates: updates(3)},
		&athena.PingReq{From: "node-042", To: "node-011", Target: "node-017", Seq: 31, Updates: updates(1)},
		&athena.ShardLookup{From: "node-042", To: "node-017", Shard: 217, Nonce: 7771},
		&athena.ShardLookupReply{From: "node-017", To: "node-042", Nonce: 7771, Labels: []string{"viable:h:1-2", "viable:v:3-1"}, Adverts: []athena.Advertisement{advert("node-03", 4), advert("node-11", 9)}},
		&athena.RequestBatch{Requests: []athena.ObjectRequest{
			{QueryID: "node-042/q17", Origin: "node-042", Object: "/city/market/cam3", SourceNode: "node-017", Labels: []string{"viable:h:1-2", "viable:v:3-1"}, Budget: 42 * time.Second},
			{QueryID: "node-042/q18", Origin: "node-042", Object: "/city/market/cam4", SourceNode: "node-017", Labels: []string{"viable:h:2-2"}, Budget: 41 * time.Second},
			{QueryID: "node-011/q03", Origin: "node-011", Object: "/city/market/cam5", SourceNode: "node-017", Labels: []string{"viable:v:3-1"}},
		}},
		&athena.DataBatch{Items: []athena.ObjectData{
			{Object: "/city/market/cam3", Version: 12, Size: 250_000, Created: tAt(5e9), Validity: time.Minute, Labels: []string{"viable:h:1-2", "viable:v:3-1"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q17"},
			{Object: "/city/market/cam4", Version: 3, Size: 180_000, Created: tAt(6e9), Validity: time.Minute, Labels: []string{"viable:h:2-2"}, SourceNode: "node-017", Origin: "node-042", QueryID: "node-042/q18"},
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
		"06" + // version 6
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
	m := &athena.ShardLookup{From: "n1", To: "n2", Shard: 5, Nonce: 9}
	frame, err := (Codec{}).Append(nil, "a", m.WireSize(), m)
	if err != nil {
		t.Fatal(err)
	}
	golden := "0000007c" + // length: 124 bytes follow
		"06" + // version 6
		"0f" + // type: ShardLookup (15)
		"000161" + // from: "a"
		"00026e31" + // From: "n1"
		"00026e32" + // To: "n2"
		"00000005" + // Shard
		"0000000000000009" + // Nonce
		strings.Repeat("00", 99) // padding up to shardLookupBytes (128)
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
		{QueryID: "q", Origin: "o", Object: "/x", SourceNode: "s", Budget: 5 * time.Second},
	}}
	frame, err := (Codec{}).Append(nil, "a", m.WireSize(), m)
	if err != nil {
		t.Fatal(err)
	}
	golden := "000000ac" + // length: 172 bytes follow
		"06" + // version 6
		"11" + // type: RequestBatch (17)
		"000161" + // from: "a"
		"0001" + // member count
		"000171" + // QueryID: "q"
		"00016f" + // Origin: "o"
		"00022f78" + // Object: "/x"
		"000173" + // SourceNode: "s"
		"0000" + // Labels: empty
		"000000012a05f200" + // Budget: 5 s in nanoseconds
		strings.Repeat("00", 142) // padding up to batchBaseBytes + batchedRequestBytes (176)
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
	t.Run("version 1", func(t *testing.T) {
		// A heartbeat as a version-1 peer sends it: the layout is the same
		// in both versions, so only the version byte refuses it.
		b := append([]byte(nil), body...)
		b[0] = 1
		if _, _, err := (Codec{}).Decode(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("version-1 frame: err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("version 3", func(t *testing.T) {
		b := append([]byte(nil), body...)
		b[0] = 3
		if _, _, err := (Codec{}).Decode(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("version-3 frame: err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("version 4", func(t *testing.T) {
		b := append([]byte(nil), body...)
		b[0] = 4
		if _, _, err := (Codec{}).Decode(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("version-4 frame: err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("version 5", func(t *testing.T) {
		b := append([]byte(nil), body...)
		b[0] = 5
		if _, _, err := (Codec{}).Decode(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("version-5 frame: err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("retired type 1", func(t *testing.T) {
		// QueryAnnounce's ID until version 4; no message has it since.
		b := append([]byte(nil), body...)
		b[1] = 1
		if _, _, err := (Codec{}).Decode(b); !errors.Is(err, ErrUnknownType) {
			t.Errorf("type-1 frame: err = %v, want ErrUnknownType", err)
		}
	})
	t.Run("retired type 9", func(t *testing.T) {
		// PeerLeave's ID until version 5; no message has it since.
		b := append([]byte(nil), body...)
		b[1] = 9
		if _, _, err := (Codec{}).Decode(b); !errors.Is(err, ErrUnknownType) {
			t.Errorf("type-9 frame: err = %v, want ErrUnknownType", err)
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
	m := &athena.ObjectRequest{QueryID: "q", Origin: "o", Object: strings.Repeat("x", 300)}
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

// headMatchesAppend checks AppendHead against Append and against the
// frame both must produce, at sizes 0, one under, at and one over m's raw
// encoding, its WireSize() and MaxFrame+1: the head followed by pad zero
// bytes is Append's frame byte for byte, the length prefix counts the
// padding, and both return the same error. When buf can hold MaxFrame
// bytes, the size MaxFrame itself is tried too, with Append writing its
// 64 MB frame into buf.
func headMatchesAppend(t testing.TB, m interface{ WireSize() int64 }, buf []byte) {
	t.Helper()
	var c Codec
	raw, rawErr := c.Append(nil, "node-042", 0, m)
	n := int64(len(raw))
	sizes := []int64{0, n - 1, n, n + 1, m.WireSize(), MaxFrame + 1}
	if cap(buf) >= MaxFrame {
		sizes = append(sizes, MaxFrame)
	}
	for _, size := range sizes {
		frame, err := c.Append(buf[:0], "node-042", size, m)
		head, pad, headErr := c.AppendHead(nil, "node-042", size, m)
		if fmt.Sprint(headErr) != fmt.Sprint(err) {
			t.Errorf("%T at size %d: AppendHead error %v, Append error %v", m, size, headErr, err)
			continue
		}
		if err != nil || rawErr != nil {
			continue
		}
		total := n // the raw encoding, padded to size when that is larger
		if size > n && size <= MaxFrame {
			total = size
		}
		switch {
		case int64(len(frame)) != total:
			t.Errorf("%T at size %d: Append's frame is %d bytes, want %d", m, size, len(frame), total)
		case int64(len(head)+pad) != total:
			t.Errorf("%T at size %d: %d-byte head + %d padding, want %d bytes", m, size, len(head), pad, total)
		case int64(binary.BigEndian.Uint32(head)) != total-4:
			t.Errorf("%T at size %d: length prefix %d, want %d", m, size, binary.BigEndian.Uint32(head), total-4)
		case !bytes.Equal(head[4:], raw[4:]):
			t.Errorf("%T at size %d: the head is not the raw encoding", m, size)
		case !bytes.Equal(frame[:len(head)], head) || !allZero(frame[len(head):]):
			t.Errorf("%T at size %d: Append's frame is not the head followed by %d zero bytes", m, size, pad)
		}
	}
}

// TestAppendHeadMatchesAppend pins the two-piece frame the TCP transport
// writes to Append's, for every golden message at every size
// headMatchesAppend tries, MaxFrame included. roundTrip runs the same
// check on every fuzz seed and input, MaxFrame excepted: a 64 MB frame
// per input would stall a fuzzing run.
func TestAppendHeadMatchesAppend(t *testing.T) {
	buf := make([]byte, 0, MaxFrame)
	for _, m := range sizedMessages() {
		headMatchesAppend(t, m, buf)
	}
}

// roundTrip encodes msg, decodes it back, and fails on any loss of
// fidelity. Shared by all the per-type fuzz targets.
func roundTrip(t *testing.T, msg interface{ WireSize() int64 }) {
	t.Helper()
	headMatchesAppend(t, msg, nil)
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

func FuzzObjectRequest(f *testing.F) {
	f.Add("q1", "origin", "/city/cam1", "src", "lbl", uint8(2), int64(5e9))
	f.Fuzz(func(t *testing.T, id, origin, obj, src, lbl string, n uint8, budget int64) {
		roundTrip(t, &athena.ObjectRequest{QueryID: id, Origin: origin, Object: obj, SourceNode: src, Labels: fuzzStrings(lbl, n), Budget: time.Duration(budget)})
	})
}

func FuzzObjectData(f *testing.F) {
	f.Add("/city/cam1", uint64(3), int64(1000), int64(5e9), int64(1e9), "lbl", uint8(1), "src", "origin", "q1")
	f.Add("/city/cam1", uint64(3), int64(1<<20+5), int64(5e9), int64(1e9), "lbl", uint8(1), "src", "origin", "q1")
	f.Fuzz(func(t *testing.T, obj string, version uint64, size, created, validity int64, lbl string, n uint8, src, origin, id string) {
		roundTrip(t, &athena.ObjectData{Object: obj, Version: version, Size: size, Created: fuzzTime(created), Validity: time.Duration(validity), Labels: fuzzStrings(lbl, n), SourceNode: src, Origin: origin, QueryID: id})
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

func FuzzSyncRequest(f *testing.F) {
	f.Add("from", "to", "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false, "k1", "k2", uint8(1), "annot", "sig", int64(5e9), uint32(0), uint8(0))
	f.Add("from", "to", "src", "/name", "lbl", uint8(0), uint8(1), int64(5), uint64(1), false, "k1", "k2", uint8(3), "annot", "sig", int64(5e9), uint32(3), uint8(2))
	f.Fuzz(func(t *testing.T, from, to, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool, k1, k2 string, n uint8, annot, sig string, ns int64, base uint32, sn uint8) {
		if k1 == k2 {
			k2 = k1 + "x"
		}
		roundTrip(t, &athena.SyncRequest{From: from, To: to, Shards: fuzzShards(base, sn), Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn), Seqs: fuzzSeqs(k1, k2, n), Labels: fuzzLabels(lbl, annot, name, sig, n, ns, size, withdrawn)})
	})
}

func FuzzSyncResponse(f *testing.F) {
	f.Add("from", "to", "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false, "k1", "k2", uint8(1), "annot", "sig", int64(5e9), uint32(0), uint8(0))
	f.Add("from", "to", "src", "/name", "lbl", uint8(0), uint8(1), int64(5), uint64(1), false, "k1", "k2", uint8(3), "annot", "sig", int64(5e9), uint32(3), uint8(2))
	f.Fuzz(func(t *testing.T, from, to, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool, k1, k2 string, n uint8, annot, sig string, ns int64, base uint32, sn uint8) {
		if k1 == k2 {
			k2 = k1 + "x"
		}
		roundTrip(t, &athena.SyncResponse{From: from, To: to, Shards: fuzzShards(base, sn), Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn), Seqs: fuzzSeqs(k1, k2, n), Labels: fuzzLabels(lbl, annot, name, sig, n, ns, size, withdrawn)})
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

func FuzzShardLookup(f *testing.F) {
	f.Add("from", "to", uint32(217), uint64(9))
	f.Add("", "", uint32(0), uint64(0))
	f.Fuzz(func(t *testing.T, from, to string, shard uint32, nonce uint64) {
		roundTrip(t, &athena.ShardLookup{From: from, To: to, Shard: shard, Nonce: nonce})
	})
}

func FuzzShardLookupReply(f *testing.F) {
	f.Add("from", "to", uint64(9), "lbl", uint8(2), "src", "/name", "lbl", uint8(1), uint8(1), int64(5), uint64(1), false)
	f.Add("from", "to", uint64(9), "", uint8(0), "src", "/name", "lbl", uint8(0), uint8(0), int64(0), uint64(0), false)
	f.Fuzz(func(t *testing.T, from, to string, nonce uint64, listed string, nlisted uint8, src, name, lbl string, count, lbls uint8, size int64, seq uint64, withdrawn bool) {
		roundTrip(t, &athena.ShardLookupReply{From: from, To: to, Nonce: nonce, Labels: fuzzStrings(listed, nlisted),
			Adverts: fuzzAdverts(src, name, lbl, count, lbls, size, seq, withdrawn)})
	})
}

func FuzzRequestBatch(f *testing.F) {
	f.Add("q1", "origin", "/city/cam1", "src", "lbl", uint8(2), uint8(2), int64(5e9))
	f.Fuzz(func(t *testing.T, id, origin, obj, src, lbl string, n uint8, count uint8, budget int64) {
		k := int(count % 4)
		var reqs []athena.ObjectRequest
		for i := 0; i < k; i++ {
			reqs = append(reqs, athena.ObjectRequest{QueryID: id, Origin: origin, Object: obj, SourceNode: src, Labels: fuzzStrings(lbl, n), Budget: time.Duration(budget) * time.Duration(i)})
		}
		roundTrip(t, &athena.RequestBatch{Requests: reqs})
	})
}

func FuzzDataBatch(f *testing.F) {
	f.Add("/city/cam1", uint64(3), int64(1000), int64(5e9), int64(1e9), "lbl", uint8(1), "src", "origin", "q1", uint8(2))
	f.Fuzz(func(t *testing.T, obj string, version uint64, size, created, validity int64, lbl string, n uint8, src, origin, id string, count uint8) {
		k := int(count % 4)
		var items []athena.ObjectData
		for i := 0; i < k; i++ {
			items = append(items, athena.ObjectData{Object: obj, Version: version, Size: size, Created: fuzzTime(created), Validity: time.Duration(validity), Labels: fuzzStrings(lbl, n), SourceNode: src, Origin: origin, QueryID: id})
		}
		roundTrip(t, &athena.DataBatch{Items: items})
	})
}

// FuzzDecode throws arbitrary bytes at the decoder: it must reject or
// parse, never panic or over-allocate. It also holds Decode to the rule
// the TCP transport reads long frames by, handing Decode only their first
// chunk: a body Decode accepts, cut short anywhere, is refused with no
// payload until the cut reaches the end of the message, and from there
// on decodes to the same sender and payload; a non-zero byte after the
// message is refused. Each input then goes through a stream's Decoder
// three ways — fresh, warmed by that first pass, and with its intern
// table full — and each must decode every cut exactly as Codec.Decode.
func FuzzDecode(f *testing.F) {
	hb := &athena.Heartbeat{Node: "n1", Beat: 1}
	frame, _ := (Codec{}).Append(nil, "a", hb.WireSize(), hb)
	f.Add(frame[4:])
	f.Add([]byte{1, 5, 0, 0})
	f.Add([]byte{})
	bulk, _ := paddedData(f, 1<<20+5)
	f.Add(bulk)
	req, _ := (Codec{}).Append(nil, "node-042", 0, smallFrames[0].msg)
	f.Add(req[4:])
	full := fullDecoder(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var c Codec
		from, payload, err := c.Decode(body)
		if err != nil {
			for _, d := range []*Decoder{new(Decoder), full} {
				if _, p, err := d.Decode(body); err == nil || p != nil {
					t.Fatalf("Codec.Decode refuses the body, a Decoder decodes %#v", p)
				}
			}
			return
		}
		fresh := new(Decoder)
		checkCuts(t, "Codec.Decode", c.Decode, body, from, payload)
		checkCuts(t, "a fresh Decoder", fresh.Decode, body, from, payload)
		checkCuts(t, "a warmed Decoder", fresh.Decode, body, from, payload)
		checkCuts(t, "a full Decoder", full.Decode, body, from, payload)
		if full.tab.held > internBudget {
			t.Fatalf("a full table holds %d bytes, over its %d budget", full.tab.held, internBudget)
		}
	})
}

// checkCuts is FuzzDecode's chunk rule for one decode function: body cut
// short decodes to nothing until the message ends, then to from and
// payload; a non-zero byte after the message is refused.
func checkCuts(t *testing.T, who string, decode func([]byte) (string, any, error), body []byte, from string, payload any) {
	t.Helper()
	end := 0
	for ; ; end++ {
		fr, p, err := decode(body[:end])
		if err != nil {
			if p != nil {
				t.Fatalf("%s: body cut at %d: payload %#v with error %v", who, end, p, err)
			}
			continue
		}
		if fr != from || !reflect.DeepEqual(p, payload) {
			t.Fatalf("%s: body cut at %d decodes to %q %#v, whole body to %q %#v", who, end, fr, p, from, payload)
		}
		break
	}
	if mid := (end + len(body)) / 2; mid > end {
		if fr, p, err := decode(body[:mid]); err != nil || fr != from || !reflect.DeepEqual(p, payload) {
			t.Fatalf("%s: message ends at %d, body cut at %d decodes to %q %#v, %v", who, end, mid, fr, p, err)
		}
	}
	if end < len(body) {
		bad := append([]byte(nil), body...)
		bad[len(bad)-1] = 1
		if _, p, err := decode(bad); err == nil || p != nil {
			t.Fatalf("%s: message ends at %d, a non-zero last byte of %d decodes to %#v", who, end, len(body), p)
		}
	}
}

// fullDecoder is a Decoder whose intern table has stopped adding: it has
// decoded heartbeats from more distinct senders than it keeps.
func fullDecoder(t testing.TB) *Decoder {
	t.Helper()
	d := new(Decoder)
	for i := 0; d.tab.n < internSlots*3/4 && d.tab.held+internMaxLen+internSlack <= internBudget; i++ {
		name := fmt.Sprintf("filler-%04d-%s", i, strings.Repeat("x", i%48))
		hb := &athena.Heartbeat{Node: name}
		frame, err := (Codec{}).Append(nil, name, 0, hb)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Decode(frame[4:]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestDecoderHostileStream: a peer that sends 10^5 frames, each naming
// two ids never seen before, fills its stream's table to the budget and
// no further, and every frame still decodes to what Codec.Decode reads.
func TestDecoderHostileStream(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5 frames")
	}
	d := new(Decoder)
	var c Codec
	for i := 0; i < 100_000; i++ {
		from := fmt.Sprintf("peer-%06d-%s", i, strings.Repeat("z", 40))
		m := &athena.Heartbeat{Node: fmt.Sprintf("/hostile/name/%08d/%s", i, strings.Repeat("y", 40)), Beat: uint64(i)}
		frame, err := c.Append(nil, from, 0, m)
		if err != nil {
			t.Fatal(err)
		}
		fr, p, err := d.Decode(frame[4:])
		wf, wp, werr := c.Decode(frame[4:])
		if err != nil || werr != nil || fr != wf || !reflect.DeepEqual(p, wp) {
			t.Fatalf("frame %d: Decoder %q %#v %v, Codec.Decode %q %#v %v", i, fr, p, err, wf, wp, werr)
		}
		if d.tab.held > internBudget {
			t.Fatalf("frame %d: the table holds %d bytes, over its %d budget", i, d.tab.held, internBudget)
		}
	}
	if full := d.tab.n == internSlots*3/4 || d.tab.held+internMaxLen+internSlack > internBudget; !full {
		t.Fatalf("after 10^5 names the table holds %d strings, %d bytes: not full", d.tab.n, d.tab.held)
	}
	t.Logf("table: %d strings, %d bytes accounted", d.tab.n, d.tab.held)
}

// TestDecoderAllocs pins what a small frame costs to decode: through
// Codec.Decode, which copies every string, and through a stream's Decoder
// warmed with one frame, which copies only what a frame carries once
// (query ids, signatures) and allocates the message and its slices. The
// warmed counts are BENCH_core.json's BenchmarkDecodeSmall rows.
func TestDecoderAllocs(t *testing.T) {
	want := map[string][2]float64{"request": {9, 3}, "share": {17, 7}, "ping4": {25, 6}}
	var c Codec
	for _, f := range smallFrames {
		frame, err := c.Append(nil, "node-042", f.msg.WireSize(), f.msg)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		d := new(Decoder)
		if _, _, err := d.Decode(body); err != nil {
			t.Fatal(err)
		}
		copied := testing.AllocsPerRun(100, func() { _, benchSink, _ = c.Decode(body) })
		warmed := testing.AllocsPerRun(100, func() { _, benchSink, _ = d.Decode(body) })
		if got := [2]float64{copied, warmed}; got != want[f.name] {
			t.Errorf("%s: %v allocations per Codec.Decode and %v per warmed Decoder.Decode, want %v", f.name, copied, warmed, want[f.name])
		}
	}
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
// every frame costs an allocation. Append encodes unpadded because under
// -race the compiler does not fuse the padding's append-of-make (the
// padded path is held by ci.sh's BenchmarkEncodeSmall gate); AppendHead
// builds no padding, so it encodes at WireSize().
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
		got = testing.AllocsPerRun(100, func() {
			if _, _, err := c.AppendHead(buf, "node-042", m.WireSize(), m); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%T: %v allocations per AppendHead, want %v", m, got, want)
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

// BenchmarkEncodeObjectData frames the bulk object both ways: append
// builds the whole frame, head only what the TCP transport cannot send by
// reference. frame-B/op is the bytes an encode writes into its buffer;
// ci.sh gates head's, which padding built back into AppendHead would
// multiply by four thousand.
func BenchmarkEncodeObjectData(b *testing.B) {
	var c Codec
	b.Run("append", func(b *testing.B) {
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
		b.ReportMetric(float64(len(buf)), "frame-B/op")
	})
	b.Run("head", func(b *testing.B) {
		buf := make([]byte, 0, benchData.WireSize())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame, _, err := c.AppendHead(buf[:0], "node-017", benchData.WireSize(), benchData)
			if err != nil {
				b.Fatal(err)
			}
			buf = frame
		}
		b.ReportMetric(float64(len(buf)), "frame-B/op")
	})
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

// BenchmarkDecodeSmall decodes each small frame as a connection does once
// its first frame has arrived: through the stream's Decoder, warmed with
// that frame. Codec.Decode, which copies every string, reads 9, 17 and
// 25 allocs/op (TestDecoderAllocs).
func BenchmarkDecodeSmall(b *testing.B) {
	var c Codec
	for _, f := range smallFrames {
		b.Run(f.name, func(b *testing.B) {
			frame, err := c.Append(nil, "node-042", f.msg.WireSize(), f.msg)
			if err != nil {
				b.Fatal(err)
			}
			d := new(Decoder)
			if _, _, err := d.Decode(frame[4:]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, m, err := d.Decode(frame[4:])
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}
