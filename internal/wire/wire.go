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
//	4       1     format version (currently 1)
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
// names its fields in wire order (see queryAnnounce and its siblings).
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
// The codec keeps no buffers: Append extends the slice it is given (the
// TCP transport recycles its own), and decoded messages never alias the
// input buffer (strings and byte fields are copied out), so callers may
// recycle a buffer as soon as Decode returns.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"athena/internal/athena"
	"athena/internal/transport"
	"athena/internal/trust"
)

// Version is the wire format version stamped into every frame. Receivers
// reject frames with a different version rather than guessing.
const Version = 1

// MaxFrame bounds a frame's total length (prefix included). The value is
// the transport's receive-side guard: Append refuses to produce frames
// the peer's read loop would reject.
const MaxFrame = transport.MaxFrame

// Message type IDs, one per Athena wire message. The zero value is
// reserved (it marks a corrupt frame).
const (
	TypeQueryAnnounce = 1 + iota
	TypeObjectRequest
	TypeObjectData
	TypeLabelShare
	TypeHeartbeat
	TypeAdvertGossip
	TypePeerJoin
	TypePeerJoinAck
	TypePeerLeave
	TypeSyncRequest
	TypeSyncResponse
	TypePing
	TypeAck
	TypePingReq
	TypeShardLookup
	TypeShardLookupReply
	TypeShardSyncRequest
	TypeShardSyncResponse
	TypeRequestBatch
	TypeDataBatch
)

// Codec implements transport.Codec for the Athena message set. It is
// stateless; the zero value is ready to use.
type Codec struct{}

var _ transport.Codec = Codec{}

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
// which the frame is padded to when the raw encoding is smaller.
func (Codec) Append(dst []byte, from string, size int64, payload any) ([]byte, error) {
	start := len(dst)
	// Reserve the length prefix and the type byte; each is patched once
	// known.
	c := coder{b: append(dst, 0, 0, 0, 0, Version, 0), enc: true}
	c.str(&from)
	id := encodePayload(&c, payload)
	if id == 0 {
		return c.b[:start], fmt.Errorf("%w: %T", ErrUnknownType, payload)
	}
	if c.err != nil {
		return c.b[:start], c.err
	}
	dst = c.b
	dst[start+5] = id
	// Pad to the modeled size so measured traffic matches the simulator's
	// accounting; an oversized raw encoding ships as-is.
	if raw := int64(len(dst) - start); size > raw && size <= MaxFrame {
		dst = append(dst, make([]byte, size-raw)...)
	}
	total := len(dst) - start
	if total > MaxFrame {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(total-4))
	return dst, nil
}

// Decode parses a frame body (everything after the 4-byte length prefix)
// and returns the sender id and the decoded message as a pointer
// (*athena.Ping, *athena.ObjectData, ...). Trailing bytes must be zero
// padding; anything else is ErrBadFrame.
func (Codec) Decode(body []byte) (from string, payload any, err error) {
	c := coder{b: body}
	var v, id byte
	c.u8(&v)
	if v != Version {
		return "", nil, fmt.Errorf("%w: version %d", ErrBadFrame, v)
	}
	c.u8(&id)
	c.str(&from)
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
	case *athena.QueryAnnounce:
		queryAnnounce(c, m)
		return TypeQueryAnnounce
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
	case *athena.PeerLeave:
		peerLeave(c, m)
		return TypePeerLeave
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
	case *athena.ShardSyncRequest:
		shardSyncRequest(c, m)
		return TypeShardSyncRequest
	case *athena.ShardSyncResponse:
		shardSyncResponse(c, m)
		return TypeShardSyncResponse
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
	case TypeQueryAnnounce:
		m := new(athena.QueryAnnounce)
		queryAnnounce(c, m)
		return m
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
	case TypePeerLeave:
		m := new(athena.PeerLeave)
		peerLeave(c, m)
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
	case TypeShardSyncRequest:
		m := new(athena.ShardSyncRequest)
		shardSyncRequest(c, m)
		return m
	case TypeShardSyncResponse:
		m := new(athena.ShardSyncResponse)
		shardSyncResponse(c, m)
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

func queryAnnounce(c *coder, m *athena.QueryAnnounce) {
	c.str(&m.QueryID)
	c.str(&m.Origin)
	c.str(&m.Expr)
	c.time(&m.Deadline)
	c.int(&m.TTL)
	c.int(&m.Hops)
}

func objectRequest(c *coder, m *athena.ObjectRequest) {
	c.str(&m.QueryID)
	c.str(&m.Origin)
	c.str(&m.Object)
	c.str(&m.SourceNode)
	c.strs(&m.Labels)
	c.bool(&m.Prefetch)
}

func objectData(c *coder, m *athena.ObjectData) {
	c.str(&m.Object)
	c.u64(&m.Version)
	c.i64(&m.Size)
	c.time(&m.Created)
	c.dur(&m.Validity)
	c.strs(&m.Labels)
	c.str(&m.SourceNode)
	c.str(&m.Origin)
	c.str(&m.QueryID)
	c.bool(&m.Background)
}

func labelShare(c *coder, m *athena.LabelShare) {
	trustLabels(c, &m.Records)
	c.str(&m.Dest)
	c.str(&m.QueryID)
}

func heartbeat(c *coder, m *athena.Heartbeat) {
	c.str(&m.Node)
	c.u64(&m.Beat)
	c.u64(&m.AdvSeq)
	c.u64(&m.Digest)
}

func advertGossip(c *coder, m *athena.AdvertGossip) {
	c.str(&m.To)
	adverts(c, &m.Adverts)
}

func peerJoin(c *coder, m *athena.PeerJoin) {
	c.str(&m.Node)
	c.str(&m.Addr)
	adverts(c, &m.Adverts)
}

func peerJoinAck(c *coder, m *athena.PeerJoinAck) {
	c.str(&m.Node)
	c.str(&m.Addr)
	c.strMap(&m.Peers)
	adverts(c, &m.Adverts)
}

func peerLeave(c *coder, m *athena.PeerLeave) {
	c.str(&m.Node)
	c.u64(&m.Seq)
}

func syncRequest(c *coder, m *athena.SyncRequest) {
	c.str(&m.From)
	c.str(&m.To)
	adverts(c, &m.Adverts)
	c.seqMap(&m.Seqs)
	trustLabels(c, &m.Labels)
}

func syncResponse(c *coder, m *athena.SyncResponse) {
	c.str(&m.From)
	c.str(&m.To)
	adverts(c, &m.Adverts)
	c.seqMap(&m.Seqs)
	trustLabels(c, &m.Labels)
}

func ping(c *coder, m *athena.Ping) {
	c.str(&m.From)
	c.str(&m.To)
	c.u64(&m.Seq)
	c.u64(&m.AdvSeq)
	c.u64(&m.Digest)
	c.str(&m.OnBehalf)
	c.u64(&m.OnBehalfSeq)
	memberUpdates(c, &m.Updates)
}

func ack(c *coder, m *athena.Ack) {
	c.str(&m.From)
	c.str(&m.To)
	c.u64(&m.Seq)
	c.u64(&m.AdvSeq)
	c.u64(&m.Digest)
	memberUpdates(c, &m.Updates)
}

func pingReq(c *coder, m *athena.PingReq) {
	c.str(&m.From)
	c.str(&m.To)
	c.str(&m.Target)
	c.u64(&m.Seq)
	memberUpdates(c, &m.Updates)
}

func shardLookup(c *coder, m *athena.ShardLookup) {
	c.str(&m.From)
	c.str(&m.To)
	c.str(&m.Label)
	c.u32(&m.Shard)
	c.u64(&m.Nonce)
}

func shardLookupReply(c *coder, m *athena.ShardLookupReply) {
	c.str(&m.From)
	c.str(&m.To)
	c.str(&m.Label)
	c.u32(&m.Shard)
	c.u64(&m.Nonce)
	adverts(c, &m.Adverts)
}

func shardSyncRequest(c *coder, m *athena.ShardSyncRequest) {
	c.str(&m.From)
	c.str(&m.To)
	c.u32s(&m.Shards)
	c.seqMap(&m.Seqs)
}

func shardSyncResponse(c *coder, m *athena.ShardSyncResponse) {
	c.str(&m.From)
	c.str(&m.To)
	c.u32s(&m.Shards)
	adverts(c, &m.Adverts)
	c.seqMap(&m.Seqs)
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
	c.str(&a.Source)
	c.str(&a.Name)
	c.i64(&a.Size)
	c.dur(&a.Validity)
	c.strs(&a.Labels)
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
	c.str(&l.Name)
	c.bool(&l.Value)
	c.str(&l.Annotator)
	c.strs(&l.Evidence)
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

func (c *coder) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if !c.enc {
		*p = int(v)
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
	n := c.readLen()
	if c.off+n > len(c.b) {
		c.truncated()
		return
	}
	// string() copies, so decoded messages never alias the frame buffer.
	*p = string(c.b[c.off : c.off+n])
	c.off += n
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

func (c *coder) strs(p *[]string) {
	es := elems(c, p)
	for i := range es {
		c.str(&es[i])
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
			c.str(&k)
			c.str(&v)
		}
		return
	}
	*p = make(map[string]string, n)
	for i := 0; i < n; i++ {
		var k, v string
		c.str(&k)
		c.str(&v)
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
			c.str(&k)
			c.u64(&v)
		}
		return
	}
	*p = make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		var k string
		var v uint64
		c.str(&k)
		c.u64(&v)
		(*p)[k] = v
	}
}
