// Package wire is the hand-rolled binary codec for every Athena message.
// It replaces encoding/gob on the TCP path with explicit, length-prefixed
// frames built on encoding/binary primitives, so that bytes-on-the-wire
// are knowable, auditable, and equal to the WireSize() estimates netsim
// charges against link bandwidth.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       4     N: frame length, bytes after this prefix (u32)
//	4       1     format version (the Version constant)
//	5       1     message type ID (see Type* constants)
//	6       2     sender id length L (u16)
//	8       L     sender id (UTF-8)
//	8+L     P     payload (type-specific, see the layout functions)
//	8+L+P   Z     zero padding up to the message's WireSize()
//
// The padding makes WireSize() the truth: when the raw encoding is
// smaller than the modeled size the frame is padded up to it, so the TCP
// transport ships exactly the bytes the simulator accounts for. If a raw
// encoding ever exceeds the model the frame is sent unpadded — the
// receiver always reports the actual frame length, never a sender
// estimate. TestWireSizeIsFrameLength pins the equality per type.
//
// Each message's payload is written down once, as a layout function that
// names its fields in wire order (see objectRequest and its siblings).
// Append and Decode run the same function over a coder that either
// appends the fields or reads them, so an encoder and a decoder cannot
// disagree about a layout. What that cannot catch — a field swapped in
// the one listing — TestGoldenAllTypes does.
//
// Encoding primitives: strings and slices carry u16 lengths; integers are
// fixed-width big-endian; float64 goes through math.Float64bits; times
// travel as UnixNano with math.MinInt64 reserved for the zero time;
// durations are their int64 nanosecond count. Maps are encoded sorted by
// key so encoding is deterministic (golden tests depend on it).
//
// The codec keeps no frame buffers: Append extends the slice it is given
// (the TCP transport recycles its own), and decoded messages never alias
// the input buffer, so callers may recycle a buffer as soon as Decode
// returns. What a stream of frames repeats — node ids, object names,
// labels — is copied out once per stream, not once per frame: a Decoder
// (Codec.NewDecoder, one per connection or simulated receiver) keeps an
// intern table of those strings, bounded by a constant byte budget, and
// hands every later frame the copy it holds. Strings a frame carries once
// (query ids, signatures) are copied as they arrive. Codec.Decode is the
// same decode with no table. The padding need not be
// built at all: AppendHead stops before it and reports its length, and
// the TCP transport writes those zeros by reference from a shared block
// (transport.HeadAppender). Nor is it held on receipt: the transport
// hands Decode only the first chunk of a long frame and checks the rest
// of the zeros a chunk at a time as they arrive. Every one is still
// checked.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"time"

	"athena/internal/athena"
	"athena/internal/transport"
	"athena/internal/trust"
)

// Version is the wire format version stamped into every frame. Receivers
// reject frames with a different version rather than guessing. Version 2
// folded the scoped ShardSync frames into SyncRequest/SyncResponse and
// dropped fields no receiver read (QueryAnnounce.TTL, ShardLookup.Shard,
// ShardLookupReply.Label and .Shard). Version 3 added ObjectRequest.Budget.
// Version 4 retired QueryAnnounce (type ID 1) and the one-byte flags of
// ObjectRequest and ObjectData, which only the retired push path set.
// Version 5 made a shard lookup name a shard (ShardLookup.Shard, for
// .Label) and its reply list the shard's labels (ShardLookupReply.Labels).
// Version 6 retired PeerLeave (type ID 9): a leave is a tombstone advert.
// Version 7 dropped SyncRequest.Adverts, SyncRequest.Labels and
// SyncResponse.Labels: every anti-entropy exchange is the seq-vector one,
// and label records no longer ride it.
const Version = 7

// MaxFrame bounds a frame's total length (prefix included). The value is
// the transport's receive-side guard: Append refuses to produce frames
// the peer's read loop would reject.
const MaxFrame = transport.MaxFrame

// Message type IDs, one per Athena wire message. The zero value is
// reserved (it marks a corrupt frame), and so are 1, QueryAnnounce's ID
// until version 4, and 9, PeerLeave's until version 5: no later message
// takes them.
const (
	TypeObjectRequest = 2 + iota
	TypeObjectData
	TypeLabelShare
	TypeHeartbeat
	TypeAdvertGossip
	TypePeerJoin
	TypePeerJoinAck
	_ // 9: PeerLeave until version 5
	TypeSyncRequest
	TypeSyncResponse
	TypePing
	TypeAck
	TypePingReq
	TypeShardLookup
	TypeShardLookupReply
	TypeRequestBatch
	TypeDataBatch
)

// Codec implements transport.Codec for the Athena message set. It is
// stateless; the zero value is ready to use.
type Codec struct{}

var (
	_ transport.Codec         = Codec{}
	_ transport.HeadAppender  = Codec{}
	_ transport.StreamDecoder = Codec{}
)

var (
	// ErrUnknownType reports an unregistered payload type on encode or an
	// unrecognized type ID on decode.
	ErrUnknownType = errors.New("wire: unknown message type")
	// ErrBadFrame reports a structurally invalid frame: wrong version,
	// truncated field, or trailing garbage where padding should be.
	ErrBadFrame = errors.New("wire: bad frame")
	// ErrTooLarge reports a frame exceeding MaxFrame or a string/slice
	// exceeding its u16 length field.
	ErrTooLarge = errors.New("wire: frame too large")
)

// Append encodes one complete frame — length prefix, header, payload,
// padding — onto dst and returns the extended slice. from is the sender
// id stamped into the header; size is the sender's modeled wire size,
// which the frame is padded to when the raw encoding is smaller. It is
// AppendHead with the padding appended.
func (c Codec) Append(dst []byte, from string, size int64, payload any) ([]byte, error) {
	frame, pad, err := c.AppendHead(dst, from, size, payload)
	if err != nil {
		return frame, err
	}
	return append(frame, make([]byte, pad)...), nil
}

// AppendHead encodes a frame's head — length prefix, header, payload —
// onto dst and returns the extended slice with the number of zero bytes
// of padding that complete the frame. The length prefix already counts
// them: the head followed by pad zeros is byte for byte Append's frame,
// and the caller writes the padding (the TCP transport sends it by
// reference from a shared zero block, so it is never built in memory).
func (Codec) AppendHead(dst []byte, from string, size int64, payload any) (frame []byte, pad int, err error) {
	start := len(dst)
	// Reserve the length prefix and the type byte; each is patched once
	// known.
	c := coder{b: append(dst, 0, 0, 0, 0, Version, 0), enc: true}
	c.name(&from)
	id := encodePayload(&c, payload)
	if id == 0 {
		return c.b[:start], 0, fmt.Errorf("%w: %T", ErrUnknownType, payload)
	}
	if c.err != nil {
		return c.b[:start], 0, c.err
	}
	dst = c.b
	dst[start+5] = id
	// Pad to the modeled size so measured traffic matches the simulator's
	// accounting; an oversized raw encoding ships as-is.
	raw := len(dst) - start
	if size > int64(raw) && size <= MaxFrame {
		pad = int(size) - raw
	}
	total := raw + pad
	if total > MaxFrame {
		return dst[:start], 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(total-4))
	return dst, pad, nil
}

// Decode parses a frame body (everything after the 4-byte length prefix)
// and returns the sender id and the decoded message as a pointer
// (*athena.Ping, *athena.ObjectData, ...). Trailing bytes must be zero
// padding; anything else is ErrBadFrame, as is a body that ends inside
// the message. Every string is copied out of body.
func (Codec) Decode(body []byte) (from string, payload any, err error) {
	return decode(body, nil)
}

// NewDecoder returns a Decoder for one stream of frames.
func (Codec) NewDecoder() transport.Decoder { return new(Decoder) }

// Decoder decodes the frames of one stream — an inbound connection, a
// simulated receiver — as Codec.Decode does, but keeps the strings the
// stream repeats (ids, names, labels) in an intern table and hands each
// later frame the same copy. A decoded message still never aliases its
// frame. The table is bounded (internBudget); once it is full, decoding
// copies as Codec.Decode does. The zero value is ready to use; a Decoder
// is not safe for concurrent use.
type Decoder struct{ tab intern }

// Decode is Codec.Decode through the stream's intern table.
func (d *Decoder) Decode(body []byte) (from string, payload any, err error) {
	return decode(body, &d.tab)
}

// decode is Codec.Decode and Decoder.Decode: tab, when not nil, interns
// the fields a stream repeats.
func decode(body []byte, tab *intern) (from string, payload any, err error) {
	c := coder{b: body, tab: tab}
	var v, id byte
	c.u8(&v)
	if v != Version {
		return "", nil, fmt.Errorf("%w: version %d", ErrBadFrame, v)
	}
	c.u8(&id)
	c.name(&from)
	payload = decodePayload(&c, id)
	if payload == nil {
		return "", nil, fmt.Errorf("%w: id %d", ErrUnknownType, id)
	}
	if c.err != nil {
		return "", nil, c.err
	}
	// Whatever remains must be padding.
	if !allZero(c.b[c.off:]) {
		return "", nil, fmt.Errorf("%w: non-zero padding", ErrBadFrame)
	}
	return from, payload, nil
}

// zeroPage is what padding is compared against, one block at a time.
var zeroPage [4096]byte

// allZero reports whether every byte of b is zero. Bulk ObjectData frames
// carry up to a megabyte of padding, so the check runs as block compares
// (bytes.Equal is the runtime's vectorised memequal) rather than a byte
// loop; the first non-zero byte anywhere still fails it.
func allZero(b []byte) bool {
	for len(b) > len(zeroPage) {
		if !bytes.Equal(b[:len(zeroPage)], zeroPage[:]) {
			return false
		}
		b = b[len(zeroPage):]
	}
	return bytes.Equal(b, zeroPage[:len(b)])
}

// encodePayload appends payload's fields to c and returns its type ID,
// or 0 for a type the codec does not carry. Like decodePayload it reaches
// each layout function by a static call: behind a table of closures, an
// interface or a generic helper the coder escapes to the heap, one
// allocation per frame (TestEncodeDoesNotAllocate).
func encodePayload(c *coder, payload any) byte {
	switch m := payload.(type) {
	case *athena.ObjectRequest:
		objectRequest(c, m)
		return TypeObjectRequest
	case *athena.ObjectData:
		objectData(c, m)
		return TypeObjectData
	case *athena.LabelShare:
		labelShare(c, m)
		return TypeLabelShare
	case *athena.Heartbeat:
		heartbeat(c, m)
		return TypeHeartbeat
	case *athena.AdvertGossip:
		advertGossip(c, m)
		return TypeAdvertGossip
	case *athena.PeerJoin:
		peerJoin(c, m)
		return TypePeerJoin
	case *athena.PeerJoinAck:
		peerJoinAck(c, m)
		return TypePeerJoinAck
	case *athena.SyncRequest:
		syncRequest(c, m)
		return TypeSyncRequest
	case *athena.SyncResponse:
		syncResponse(c, m)
		return TypeSyncResponse
	case *athena.Ping:
		ping(c, m)
		return TypePing
	case *athena.Ack:
		ack(c, m)
		return TypeAck
	case *athena.PingReq:
		pingReq(c, m)
		return TypePingReq
	case *athena.ShardLookup:
		shardLookup(c, m)
		return TypeShardLookup
	case *athena.ShardLookupReply:
		shardLookupReply(c, m)
		return TypeShardLookupReply
	case *athena.RequestBatch:
		requestBatch(c, m)
		return TypeRequestBatch
	case *athena.DataBatch:
		dataBatch(c, m)
		return TypeDataBatch
	}
	return 0
}

// decodePayload reads the message with type ID id out of c into a fresh
// value, or returns nil for an ID the codec does not know.
func decodePayload(c *coder, id byte) any {
	switch id {
	case TypeObjectRequest:
		m := new(athena.ObjectRequest)
		objectRequest(c, m)
		return m
	case TypeObjectData:
		m := new(athena.ObjectData)
		objectData(c, m)
		return m
	case TypeLabelShare:
		m := new(athena.LabelShare)
		labelShare(c, m)
		return m
	case TypeHeartbeat:
		m := new(athena.Heartbeat)
		heartbeat(c, m)
		return m
	case TypeAdvertGossip:
		m := new(athena.AdvertGossip)
		advertGossip(c, m)
		return m
	case TypePeerJoin:
		m := new(athena.PeerJoin)
		peerJoin(c, m)
		return m
	case TypePeerJoinAck:
		m := new(athena.PeerJoinAck)
		peerJoinAck(c, m)
		return m
	case TypeSyncRequest:
		m := new(athena.SyncRequest)
		syncRequest(c, m)
		return m
	case TypeSyncResponse:
		m := new(athena.SyncResponse)
		syncResponse(c, m)
		return m
	case TypePing:
		m := new(athena.Ping)
		ping(c, m)
		return m
	case TypeAck:
		m := new(athena.Ack)
		ack(c, m)
		return m
	case TypePingReq:
		m := new(athena.PingReq)
		pingReq(c, m)
		return m
	case TypeShardLookup:
		m := new(athena.ShardLookup)
		shardLookup(c, m)
		return m
	case TypeShardLookupReply:
		m := new(athena.ShardLookupReply)
		shardLookupReply(c, m)
		return m
	case TypeRequestBatch:
		m := new(athena.RequestBatch)
		requestBatch(c, m)
		return m
	case TypeDataBatch:
		m := new(athena.DataBatch)
		dataBatch(c, m)
		return m
	}
	return nil
}

// --- message layouts: each lists its fields in wire order --------------

func objectRequest(c *coder, m *athena.ObjectRequest) {
	c.str(&m.QueryID)
	c.name(&m.Origin)
	c.name(&m.Object)
	c.name(&m.SourceNode)
	c.names(&m.Labels)
	c.dur(&m.Budget)
}

func objectData(c *coder, m *athena.ObjectData) {
	c.name(&m.Object)
	c.u64(&m.Version)
	c.i64(&m.Size)
	c.time(&m.Created)
	c.dur(&m.Validity)
	c.names(&m.Labels)
	c.name(&m.SourceNode)
	c.name(&m.Origin)
	c.str(&m.QueryID)
}

func labelShare(c *coder, m *athena.LabelShare) {
	trustLabels(c, &m.Records)
	c.name(&m.Dest)
	c.str(&m.QueryID)
}

func heartbeat(c *coder, m *athena.Heartbeat) {
	c.name(&m.Node)
	c.u64(&m.Beat)
	c.u64(&m.AdvSeq)
	c.u64(&m.Digest)
}

func advertGossip(c *coder, m *athena.AdvertGossip) {
	c.name(&m.To)
	adverts(c, &m.Adverts)
}

func peerJoin(c *coder, m *athena.PeerJoin) {
	c.name(&m.Node)
	c.name(&m.Addr)
	adverts(c, &m.Adverts)
}

func peerJoinAck(c *coder, m *athena.PeerJoinAck) {
	c.name(&m.Node)
	c.name(&m.Addr)
	c.strMap(&m.Peers)
	adverts(c, &m.Adverts)
}

func syncRequest(c *coder, m *athena.SyncRequest) {
	c.name(&m.From)
	c.name(&m.To)
	c.u32s(&m.Shards)
	c.seqMap(&m.Seqs)
}

func syncResponse(c *coder, m *athena.SyncResponse) {
	c.name(&m.From)
	c.name(&m.To)
	c.u32s(&m.Shards)
	adverts(c, &m.Adverts)
	c.seqMap(&m.Seqs)
}

func ping(c *coder, m *athena.Ping) {
	c.name(&m.From)
	c.name(&m.To)
	c.u64(&m.Seq)
	c.u64(&m.AdvSeq)
	c.u64(&m.Digest)
	c.name(&m.OnBehalf)
	c.u64(&m.OnBehalfSeq)
	memberUpdates(c, &m.Updates)
}

func ack(c *coder, m *athena.Ack) {
	c.name(&m.From)
	c.name(&m.To)
	c.u64(&m.Seq)
	c.u64(&m.AdvSeq)
	c.u64(&m.Digest)
	memberUpdates(c, &m.Updates)
}

func pingReq(c *coder, m *athena.PingReq) {
	c.name(&m.From)
	c.name(&m.To)
	c.name(&m.Target)
	c.u64(&m.Seq)
	memberUpdates(c, &m.Updates)
}

func shardLookup(c *coder, m *athena.ShardLookup) {
	c.name(&m.From)
	c.name(&m.To)
	c.u32(&m.Shard)
	c.u64(&m.Nonce)
}

func shardLookupReply(c *coder, m *athena.ShardLookupReply) {
	c.name(&m.From)
	c.name(&m.To)
	c.u64(&m.Nonce)
	c.names(&m.Labels)
	adverts(c, &m.Adverts)
}

func requestBatch(c *coder, m *athena.RequestBatch) {
	es := elems(c, &m.Requests)
	for i := range es {
		objectRequest(c, &es[i])
	}
}

func dataBatch(c *coder, m *athena.DataBatch) {
	es := elems(c, &m.Items)
	for i := range es {
		objectData(c, &es[i])
	}
}

// --- sub-records ------------------------------------------------------

func advertisement(c *coder, a *athena.Advertisement) {
	c.name(&a.Source)
	c.name(&a.Name)
	c.i64(&a.Size)
	c.dur(&a.Validity)
	c.names(&a.Labels)
	c.f64(&a.ProbTrue)
	c.u64(&a.Seq)
	c.bool(&a.Withdrawn)
}

func adverts(c *coder, p *[]athena.Advertisement) {
	es := elems(c, p)
	for i := range es {
		advertisement(c, &es[i])
	}
}

func memberUpdate(c *coder, u *athena.MemberUpdate) {
	advertisement(c, &u.Adv)
	c.bool(&u.Dead)
	c.time(&u.Born)
}

// memberUpdates batches a piggyback delta into the enclosing frame: one count
// followed by the packed updates, no per-update framing.
func memberUpdates(c *coder, p *[]athena.MemberUpdate) {
	es := elems(c, p)
	for i := range es {
		memberUpdate(c, &es[i])
	}
}

func trustLabel(c *coder, l *trust.Label) {
	c.name(&l.Name)
	c.bool(&l.Value)
	c.name(&l.Annotator)
	c.names(&l.Evidence)
	c.time(&l.Computed)
	c.dur(&l.Validity)
	c.str(&l.Signature)
}

func trustLabels(c *coder, p *[]trust.Label) {
	es := elems(c, p)
	for i := range es {
		trustLabel(c, &es[i])
	}
}

// --- primitives -------------------------------------------------------

// coder carries one frame through a layout function. Encoding (enc), a
// field method appends the value it points at to b; decoding, it reads
// the value out of b at off and stores it through the pointer. Either
// way the first error is latched in err and the walk runs on, so layout
// functions check nothing: a failed decode leaves the zero values of a
// fresh message behind it, a failed encode is discarded by Append.
// Encoding never writes through a field pointer — a flooded message is
// encoded by several senders at once.
type coder struct {
	b   []byte
	off int
	enc bool
	err error
	tab *intern // decoding, the stream's intern table for name fields
}

// truncated and tooLarge latch the first error. They are functions of
// their own so that the field methods, which run several times per frame,
// carry no fmt call.
func (c *coder) truncated() {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated at offset %d", ErrBadFrame, c.off)
	}
}

func (c *coder) tooLarge(format string, n int) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, ErrTooLarge, n)
	}
}

func (c *coder) u8(p *byte) {
	if c.enc {
		c.b = append(c.b, *p)
		return
	}
	if c.off+1 > len(c.b) {
		c.truncated()
		return
	}
	*p = c.b[c.off]
	c.off++
}

func (c *coder) u32(p *uint32) {
	if c.enc {
		c.b = binary.BigEndian.AppendUint32(c.b, *p)
		return
	}
	if c.off+4 > len(c.b) {
		c.truncated()
		return
	}
	*p = binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
}

func (c *coder) u64(p *uint64) {
	if c.enc {
		c.b = binary.BigEndian.AppendUint64(c.b, *p)
		return
	}
	if c.off+8 > len(c.b) {
		c.truncated()
		return
	}
	*p = binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
}

func (c *coder) i64(p *int64) {
	v := uint64(*p)
	c.u64(&v)
	if !c.enc {
		*p = int64(v)
	}
}

func (c *coder) dur(p *time.Duration) { c.i64((*int64)(p)) }

func (c *coder) f64(p *float64) {
	v := math.Float64bits(*p)
	c.u64(&v)
	if !c.enc {
		*p = math.Float64frombits(v)
	}
}

func (c *coder) bool(p *bool) {
	var v byte
	if *p {
		v = 1
	}
	c.u8(&v)
	if !c.enc {
		*p = v != 0
	}
}

// zeroTimeNanos is the sentinel for the zero time.Time, which has no
// representable UnixNano.
const zeroTimeNanos = math.MinInt64

func (c *coder) time(p *time.Time) {
	ns := int64(zeroTimeNanos)
	if c.enc && !p.IsZero() {
		ns = p.UnixNano()
	}
	c.i64(&ns)
	if !c.enc && ns != zeroTimeNanos && c.err == nil {
		*p = time.Unix(0, ns).UTC()
	}
}

// readLen reads the u16 length in front of a string, slice or map. It has
// no encoding half: str and count check a length's range before they
// write it.
func (c *coder) readLen() int {
	if c.off+2 > len(c.b) {
		c.truncated()
		return 0
	}
	n := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return int(n)
}

func (c *coder) str(p *string) {
	if c.enc {
		if len(*p) > math.MaxUint16 {
			c.tooLarge("string of %d bytes", len(*p))
			return
		}
		b := binary.BigEndian.AppendUint16(c.b, uint16(len(*p)))
		c.b = append(b, *p...)
		return
	}
	if b, ok := c.field(); ok {
		// string() copies, so decoded messages never alias the frame buffer.
		*p = string(b)
	}
}

// name is str for a field a stream repeats: a node id, an object name, a
// label. Decoding, it takes the copy the stream's intern table holds.
func (c *coder) name(p *string) {
	if c.enc {
		c.str(p)
		return
	}
	if b, ok := c.field(); ok {
		*p = c.tab.str(b)
	}
}

// field reads a string's bytes in place, for str and name to copy.
func (c *coder) field() ([]byte, bool) {
	n := c.readLen()
	if c.off+n > len(c.b) {
		c.truncated()
		return nil, false
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, true
}

// count carries a slice or map length as a u16: encoding it appends n,
// decoding it ignores n and reads the length. It returns how many
// elements the caller should walk, which is 0 once count has failed.
func (c *coder) count(n int) int {
	if c.enc {
		if n > math.MaxUint16 {
			c.tooLarge("%d elements", n)
			return 0
		}
		c.b = binary.BigEndian.AppendUint16(c.b, uint16(n))
		return n
	}
	n = c.readLen()
	// A count can't exceed the bytes remaining: each element is ≥1 byte.
	// Checking here stops a corrupt count from driving a huge make().
	if c.off+n > len(c.b) {
		c.truncated()
		return 0
	}
	return n
}

// elems carries a slice's length and, when decoding, allocates the slice
// to it (an empty one stays nil). It returns the elements to walk: none
// once count has failed.
func elems[T any](c *coder, p *[]T) []T {
	n := c.count(len(*p))
	if !c.enc && n > 0 {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

// names carries a list of names (labels, evidence), each interned.
func (c *coder) names(p *[]string) {
	es := elems(c, p)
	for i := range es {
		c.name(&es[i])
	}
}

func (c *coder) u32s(p *[]uint32) {
	es := elems(c, p)
	for i := range es {
		c.u32(&es[i])
	}
}

// sortedKeys is the order a map's entries are encoded in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (c *coder) strMap(p *map[string]string) {
	n := c.count(len(*p))
	if n == 0 {
		return
	}
	if c.enc {
		for _, k := range sortedKeys(*p) {
			v := (*p)[k]
			c.name(&k)
			c.name(&v)
		}
		return
	}
	*p = make(map[string]string, n)
	for i := 0; i < n; i++ {
		var k, v string
		c.name(&k)
		c.name(&v)
		(*p)[k] = v
	}
}

func (c *coder) seqMap(p *map[string]uint64) {
	n := c.count(len(*p))
	if n == 0 {
		return
	}
	if c.enc {
		for _, k := range sortedKeys(*p) {
			v := (*p)[k]
			c.name(&k)
			c.u64(&v)
		}
		return
	}
	*p = make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		var k string
		var v uint64
		c.name(&k)
		c.u64(&v)
		(*p)[k] = v
	}
}

// The intern table's bounds. A stream's table holds at most internBudget
// bytes: its slot array and, for each string it keeps, the string's
// allocation, which for a string of at most internMaxLen bytes Go's size
// classes round up by less than internSlack. That is well under the 64 KB
// receive chunk a connection already holds (transport's zeroBlock), so a
// peer that sends endless distinct names costs its connection no more
// than the budget. The bounds are picked, not derived from traffic: the
// busiest connection of the benchmark's socket fleets keeps 34 names and
// 4.9 KB (EXPERIMENTS P56).
const (
	internSlots  = 256 // a power of two; at most three quarters are filled
	internMaxLen = 64  // longer strings are copied, never kept
	internSlack  = 16
	internBudget = 16 << 10
	// internSlotBytes is the slot array: a string header (a pointer and a
	// length, 16 bytes on a 64-bit host) a slot.
	internSlotBytes = internSlots * 16
)

// intern is a stream's table of the strings it repeats: an open-addressed
// set of strings, probed linearly from a seeded hash of the bytes, made at
// its first string. It only adds; a full table (three quarters of its
// slots, or its byte budget) copies what it does not hold. The seed
// places strings in slots, never decides what a lookup returns, so
// decoding stays a function of the bytes.
type intern struct {
	seed  maphash.Seed
	slots []string
	n     int // slots filled
	held  int // bytes held: the slot array and every kept string's allocation
}

// str returns a string equal to b: the table's copy, a new one it keeps,
// or, past its bounds, a plain copy. A nil table copies.
func (t *intern) str(b []byte) string {
	if t == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	if t.slots == nil {
		t.seed = maphash.MakeSeed()
		t.slots = make([]string, internSlots)
		t.held = internSlotBytes
	}
	for i := maphash.Bytes(t.seed, b); ; i++ {
		s := &t.slots[i%internSlots]
		if *s == string(b) {
			return *s
		}
		if *s != "" {
			continue
		}
		if cost := len(b) + internSlack; t.n < internSlots*3/4 && t.held+cost <= internBudget {
			*s = string(b)
			t.n++
			t.held += cost
			return *s
		}
		return string(b)
	}
}
