// Package wire is the hand-rolled binary codec for every Athena message.
// It replaces encoding/gob on the TCP path with explicit, length-prefixed
// frames built on encoding/binary primitives, so that bytes-on-the-wire
// are knowable, auditable, and equal to the wireSize() estimates netsim
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
//	8+L     P     payload (type-specific, see append*/read* pairs)
//	8+L+P   Z     zero padding up to the message's WireSize()
//
// The padding makes WireSize() the truth: when the raw encoding is
// smaller than the modeled size the frame is padded up to it, so the TCP
// transport ships exactly the bytes the simulator accounts for. If a raw
// encoding ever exceeds the model the frame is sent unpadded — the
// receiver always reports the actual frame length, never a sender
// estimate. TestWireSizeIsFrameLength pins the equality per type.
//
// Encoding primitives: strings and slices carry u16 lengths; integers are
// fixed-width big-endian; float64 goes through math.Float64bits; times
// travel as UnixNano with math.MinInt64 reserved for the zero time;
// durations are their int64 nanosecond count. Maps are encoded sorted by
// key so encoding is deterministic (golden tests depend on it).
//
// Buffers are pooled: Get/PutBuffer recycle frame buffers through a
// sync.Pool. Decoded messages never alias the input buffer (strings and
// byte fields are copied out), so callers may recycle a buffer as soon as
// Decode returns.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
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

// headerBytes is the fixed cost before the sender id: 4-byte length
// prefix, version byte, type byte, and the id's u16 length.
const headerBytes = 8

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

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a pooled frame buffer with zero length. Return it
// with PutBuffer when the frame has been written or decoded.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer recycles a frame buffer obtained from GetBuffer.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Append encodes one complete frame — length prefix, header, payload,
// padding — onto dst and returns the extended slice. from is the sender
// id stamped into the header; size is the sender's modeled wire size,
// which the frame is padded to when the raw encoding is smaller.
func (Codec) Append(dst []byte, from string, size int64, payload any) ([]byte, error) {
	start := len(dst)
	// Reserve the length prefix; patched once the body is known.
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, Version)

	id, ok := typeID(payload)
	if !ok {
		return dst[:start], fmt.Errorf("%w: %T", ErrUnknownType, payload)
	}
	dst = append(dst, id)
	var err error
	if dst, err = appendString(dst, from); err != nil {
		return dst[:start], err
	}
	if dst, err = appendPayload(dst, payload); err != nil {
		return dst[:start], err
	}
	// Pad to the modeled size so measured traffic matches the simulator's
	// accounting; an oversized raw encoding ships as-is.
	if raw := int64(len(dst) - start); size > raw && size <= MaxFrame {
		dst = append(dst, make([]byte, size-raw)...)
	}
	total := len(dst) - start
	if total > MaxFrame {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	putU32(dst[start:], uint32(total-4))
	return dst, nil
}

// Decode parses a frame body (everything after the 4-byte length prefix)
// and returns the sender id and the decoded message as a pointer
// (*athena.Ping, *athena.ObjectData, ...). Trailing bytes must be zero
// padding; anything else is ErrBadFrame.
func (Codec) Decode(body []byte) (from string, payload any, err error) {
	r := reader{b: body}
	if v := r.u8(); v != Version {
		return "", nil, fmt.Errorf("%w: version %d", ErrBadFrame, v)
	}
	id := r.u8()
	from = r.str()
	payload, err = readPayload(&r, id)
	if err != nil {
		return "", nil, err
	}
	if r.err != nil {
		return "", nil, r.err
	}
	// Whatever remains must be padding.
	if !allZero(r.b[r.off:]) {
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

// EncodedFrameLen returns the total frame length (prefix included) that
// Append would produce for the message — the quantity WireSize() models.
func (c Codec) EncodedFrameLen(from string, size int64, payload any) (int64, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	b, err := c.Append(*buf, from, size, payload)
	if err != nil {
		return 0, err
	}
	n := int64(len(b))
	*buf = b[:0]
	return n, nil
}

func typeID(payload any) (byte, bool) {
	switch payload.(type) {
	case *athena.QueryAnnounce:
		return TypeQueryAnnounce, true
	case *athena.ObjectRequest:
		return TypeObjectRequest, true
	case *athena.ObjectData:
		return TypeObjectData, true
	case *athena.LabelShare:
		return TypeLabelShare, true
	case *athena.Heartbeat:
		return TypeHeartbeat, true
	case *athena.AdvertGossip:
		return TypeAdvertGossip, true
	case *athena.PeerJoin:
		return TypePeerJoin, true
	case *athena.PeerJoinAck:
		return TypePeerJoinAck, true
	case *athena.PeerLeave:
		return TypePeerLeave, true
	case *athena.SyncRequest:
		return TypeSyncRequest, true
	case *athena.SyncResponse:
		return TypeSyncResponse, true
	case *athena.Ping:
		return TypePing, true
	case *athena.Ack:
		return TypeAck, true
	case *athena.PingReq:
		return TypePingReq, true
	case *athena.ShardLookup:
		return TypeShardLookup, true
	case *athena.ShardLookupReply:
		return TypeShardLookupReply, true
	case *athena.ShardSyncRequest:
		return TypeShardSyncRequest, true
	case *athena.ShardSyncResponse:
		return TypeShardSyncResponse, true
	case *athena.RequestBatch:
		return TypeRequestBatch, true
	case *athena.DataBatch:
		return TypeDataBatch, true
	}
	return 0, false
}

func appendPayload(dst []byte, payload any) ([]byte, error) {
	switch m := payload.(type) {
	case *athena.QueryAnnounce:
		return appendQueryAnnounce(dst, m)
	case *athena.ObjectRequest:
		return appendObjectRequest(dst, m)
	case *athena.ObjectData:
		return appendObjectData(dst, m)
	case *athena.LabelShare:
		return appendLabelShare(dst, m)
	case *athena.Heartbeat:
		return appendHeartbeat(dst, m)
	case *athena.AdvertGossip:
		return appendAdvertGossip(dst, m)
	case *athena.PeerJoin:
		return appendPeerJoin(dst, m)
	case *athena.PeerJoinAck:
		return appendPeerJoinAck(dst, m)
	case *athena.PeerLeave:
		return appendPeerLeave(dst, m)
	case *athena.SyncRequest:
		return appendSyncRequest(dst, m)
	case *athena.SyncResponse:
		return appendSyncResponse(dst, m)
	case *athena.Ping:
		return appendPing(dst, m)
	case *athena.Ack:
		return appendAck(dst, m)
	case *athena.PingReq:
		return appendPingReq(dst, m)
	case *athena.ShardLookup:
		return appendShardLookup(dst, m)
	case *athena.ShardLookupReply:
		return appendShardLookupReply(dst, m)
	case *athena.ShardSyncRequest:
		return appendShardSyncRequest(dst, m)
	case *athena.ShardSyncResponse:
		return appendShardSyncResponse(dst, m)
	case *athena.RequestBatch:
		return appendRequestBatch(dst, m)
	case *athena.DataBatch:
		return appendDataBatch(dst, m)
	}
	return dst, fmt.Errorf("%w: %T", ErrUnknownType, payload)
}

func readPayload(r *reader, id byte) (any, error) {
	switch id {
	case TypeQueryAnnounce:
		return readQueryAnnounce(r), nil
	case TypeObjectRequest:
		return readObjectRequest(r), nil
	case TypeObjectData:
		return readObjectData(r), nil
	case TypeLabelShare:
		return readLabelShare(r), nil
	case TypeHeartbeat:
		return readHeartbeat(r), nil
	case TypeAdvertGossip:
		return readAdvertGossip(r), nil
	case TypePeerJoin:
		return readPeerJoin(r), nil
	case TypePeerJoinAck:
		return readPeerJoinAck(r), nil
	case TypePeerLeave:
		return readPeerLeave(r), nil
	case TypeSyncRequest:
		return readSyncRequest(r), nil
	case TypeSyncResponse:
		return readSyncResponse(r), nil
	case TypePing:
		return readPing(r), nil
	case TypeAck:
		return readAck(r), nil
	case TypePingReq:
		return readPingReq(r), nil
	case TypeShardLookup:
		return readShardLookup(r), nil
	case TypeShardLookupReply:
		return readShardLookupReply(r), nil
	case TypeShardSyncRequest:
		return readShardSyncRequest(r), nil
	case TypeShardSyncResponse:
		return readShardSyncResponse(r), nil
	case TypeRequestBatch:
		return readRequestBatch(r), nil
	case TypeDataBatch:
		return readDataBatch(r), nil
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownType, id)
}

// --- per-message payload encodings -----------------------------------

func appendQueryAnnounce(dst []byte, m *athena.QueryAnnounce) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.QueryID); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Origin); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Expr); err != nil {
		return dst, err
	}
	dst = appendTime(dst, m.Deadline)
	dst = appendI64(dst, int64(m.TTL))
	dst = appendI64(dst, int64(m.Hops))
	return dst, nil
}

func readQueryAnnounce(r *reader) *athena.QueryAnnounce {
	return &athena.QueryAnnounce{
		QueryID:  r.str(),
		Origin:   r.str(),
		Expr:     r.str(),
		Deadline: r.time(),
		TTL:      int(r.i64()),
		Hops:     int(r.i64()),
	}
}

func appendObjectRequest(dst []byte, m *athena.ObjectRequest) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.QueryID); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Origin); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Object); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.SourceNode); err != nil {
		return dst, err
	}
	if dst, err = appendStrings(dst, m.Labels); err != nil {
		return dst, err
	}
	dst = appendBool(dst, m.Prefetch)
	return dst, nil
}

func readObjectRequest(r *reader) *athena.ObjectRequest {
	m := &athena.ObjectRequest{}
	readObjectRequestInto(r, m)
	return m
}

func readObjectRequestInto(r *reader, m *athena.ObjectRequest) {
	m.QueryID = r.str()
	m.Origin = r.str()
	m.Object = r.str()
	m.SourceNode = r.str()
	m.Labels = r.strs()
	m.Prefetch = r.bool()
}

func appendObjectData(dst []byte, m *athena.ObjectData) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.Object); err != nil {
		return dst, err
	}
	dst = appendU64(dst, m.Version)
	dst = appendI64(dst, m.Size)
	dst = appendTime(dst, m.Created)
	dst = appendI64(dst, int64(m.Validity))
	if dst, err = appendStrings(dst, m.Labels); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.SourceNode); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Origin); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.QueryID); err != nil {
		return dst, err
	}
	dst = appendBool(dst, m.Background)
	return dst, nil
}

func readObjectData(r *reader) *athena.ObjectData {
	m := &athena.ObjectData{}
	readObjectDataInto(r, m)
	return m
}

func readObjectDataInto(r *reader, m *athena.ObjectData) {
	m.Object = r.str()
	m.Version = r.u64()
	m.Size = r.i64()
	m.Created = r.time()
	m.Validity = time.Duration(r.i64())
	m.Labels = r.strs()
	m.SourceNode = r.str()
	m.Origin = r.str()
	m.QueryID = r.str()
	m.Background = r.bool()
}

func appendLabelShare(dst []byte, m *athena.LabelShare) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(m.Records)); err != nil {
		return dst, err
	}
	for i := range m.Records {
		if dst, err = appendLabel(dst, &m.Records[i]); err != nil {
			return dst, err
		}
	}
	if dst, err = appendString(dst, m.Dest); err != nil {
		return dst, err
	}
	return appendString(dst, m.QueryID)
}

func readLabelShare(r *reader) *athena.LabelShare {
	m := &athena.LabelShare{}
	if n := r.count(); n > 0 {
		m.Records = make([]trust.Label, n)
		for i := range m.Records {
			readLabel(r, &m.Records[i])
		}
	}
	m.Dest = r.str()
	m.QueryID = r.str()
	return m
}

func appendHeartbeat(dst []byte, m *athena.Heartbeat) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.Node); err != nil {
		return dst, err
	}
	dst = appendU64(dst, m.Beat)
	dst = appendU64(dst, m.AdvSeq)
	dst = appendU64(dst, m.Digest)
	return dst, nil
}

func readHeartbeat(r *reader) *athena.Heartbeat {
	return &athena.Heartbeat{
		Node:   r.str(),
		Beat:   r.u64(),
		AdvSeq: r.u64(),
		Digest: r.u64(),
	}
}

func appendAdvertGossip(dst []byte, m *athena.AdvertGossip) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	return appendAdverts(dst, m.Adverts)
}

func readAdvertGossip(r *reader) *athena.AdvertGossip {
	return &athena.AdvertGossip{To: r.str(), Adverts: readAdverts(r)}
}

func appendPeerJoin(dst []byte, m *athena.PeerJoin) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.Node); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Addr); err != nil {
		return dst, err
	}
	return appendAdverts(dst, m.Adverts)
}

func readPeerJoin(r *reader) *athena.PeerJoin {
	return &athena.PeerJoin{Node: r.str(), Addr: r.str(), Adverts: readAdverts(r)}
}

func appendPeerJoinAck(dst []byte, m *athena.PeerJoinAck) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.Node); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Addr); err != nil {
		return dst, err
	}
	if dst, err = appendStringMap(dst, m.Peers); err != nil {
		return dst, err
	}
	return appendAdverts(dst, m.Adverts)
}

func readPeerJoinAck(r *reader) *athena.PeerJoinAck {
	return &athena.PeerJoinAck{
		Node:    r.str(),
		Addr:    r.str(),
		Peers:   r.strMap(),
		Adverts: readAdverts(r),
	}
}

func appendPeerLeave(dst []byte, m *athena.PeerLeave) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.Node); err != nil {
		return dst, err
	}
	return appendU64(dst, m.Seq), nil
}

func readPeerLeave(r *reader) *athena.PeerLeave {
	return &athena.PeerLeave{Node: r.str(), Seq: r.u64()}
}

func appendSync(dst []byte, from, to string, adverts []athena.Advertisement, seqs map[string]uint64, labels []trust.Label) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, from); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, to); err != nil {
		return dst, err
	}
	if dst, err = appendAdverts(dst, adverts); err != nil {
		return dst, err
	}
	if dst, err = appendSeqMap(dst, seqs); err != nil {
		return dst, err
	}
	if dst, err = appendCount(dst, len(labels)); err != nil {
		return dst, err
	}
	for i := range labels {
		if dst, err = appendLabel(dst, &labels[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func readSyncLabels(r *reader) []trust.Label {
	n := r.count()
	if n == 0 {
		return nil
	}
	ls := make([]trust.Label, n)
	for i := range ls {
		readLabel(r, &ls[i])
	}
	return ls
}

func appendSyncRequest(dst []byte, m *athena.SyncRequest) ([]byte, error) {
	return appendSync(dst, m.From, m.To, m.Adverts, m.Seqs, m.Labels)
}

func readSyncRequest(r *reader) *athena.SyncRequest {
	return &athena.SyncRequest{
		From:    r.str(),
		To:      r.str(),
		Adverts: readAdverts(r),
		Seqs:    r.seqMap(),
		Labels:  readSyncLabels(r),
	}
}

func appendSyncResponse(dst []byte, m *athena.SyncResponse) ([]byte, error) {
	return appendSync(dst, m.From, m.To, m.Adverts, m.Seqs, m.Labels)
}

func readSyncResponse(r *reader) *athena.SyncResponse {
	return &athena.SyncResponse{
		From:    r.str(),
		To:      r.str(),
		Adverts: readAdverts(r),
		Seqs:    r.seqMap(),
		Labels:  readSyncLabels(r),
	}
}

func appendPing(dst []byte, m *athena.Ping) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.From); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	dst = appendU64(dst, m.Seq)
	dst = appendU64(dst, m.AdvSeq)
	dst = appendU64(dst, m.Digest)
	if dst, err = appendString(dst, m.OnBehalf); err != nil {
		return dst, err
	}
	dst = appendU64(dst, m.OnBehalfSeq)
	return appendUpdates(dst, m.Updates)
}

func readPing(r *reader) *athena.Ping {
	return &athena.Ping{
		From:        r.str(),
		To:          r.str(),
		Seq:         r.u64(),
		AdvSeq:      r.u64(),
		Digest:      r.u64(),
		OnBehalf:    r.str(),
		OnBehalfSeq: r.u64(),
		Updates:     readUpdates(r),
	}
}

func appendAck(dst []byte, m *athena.Ack) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.From); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	dst = appendU64(dst, m.Seq)
	dst = appendU64(dst, m.AdvSeq)
	dst = appendU64(dst, m.Digest)
	return appendUpdates(dst, m.Updates)
}

func readAck(r *reader) *athena.Ack {
	return &athena.Ack{
		From:    r.str(),
		To:      r.str(),
		Seq:     r.u64(),
		AdvSeq:  r.u64(),
		Digest:  r.u64(),
		Updates: readUpdates(r),
	}
}

func appendPingReq(dst []byte, m *athena.PingReq) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.From); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Target); err != nil {
		return dst, err
	}
	dst = appendU64(dst, m.Seq)
	return appendUpdates(dst, m.Updates)
}

func readPingReq(r *reader) *athena.PingReq {
	return &athena.PingReq{
		From:    r.str(),
		To:      r.str(),
		Target:  r.str(),
		Seq:     r.u64(),
		Updates: readUpdates(r),
	}
}

func appendShardLookup(dst []byte, m *athena.ShardLookup) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.From); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Label); err != nil {
		return dst, err
	}
	dst = appendU32(dst, m.Shard)
	dst = appendU64(dst, m.Nonce)
	return dst, nil
}

func readShardLookup(r *reader) *athena.ShardLookup {
	return &athena.ShardLookup{
		From:  r.str(),
		To:    r.str(),
		Label: r.str(),
		Shard: r.u32(),
		Nonce: r.u64(),
	}
}

func appendShardLookupReply(dst []byte, m *athena.ShardLookupReply) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.From); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.Label); err != nil {
		return dst, err
	}
	dst = appendU32(dst, m.Shard)
	dst = appendU64(dst, m.Nonce)
	return appendAdverts(dst, m.Adverts)
}

func readShardLookupReply(r *reader) *athena.ShardLookupReply {
	return &athena.ShardLookupReply{
		From:    r.str(),
		To:      r.str(),
		Label:   r.str(),
		Shard:   r.u32(),
		Nonce:   r.u64(),
		Adverts: readAdverts(r),
	}
}

func appendShardSyncRequest(dst []byte, m *athena.ShardSyncRequest) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.From); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	if dst, err = appendU32s(dst, m.Shards); err != nil {
		return dst, err
	}
	return appendSeqMap(dst, m.Seqs)
}

func readShardSyncRequest(r *reader) *athena.ShardSyncRequest {
	return &athena.ShardSyncRequest{
		From:   r.str(),
		To:     r.str(),
		Shards: r.u32s(),
		Seqs:   r.seqMap(),
	}
}

func appendShardSyncResponse(dst []byte, m *athena.ShardSyncResponse) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, m.From); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, m.To); err != nil {
		return dst, err
	}
	if dst, err = appendU32s(dst, m.Shards); err != nil {
		return dst, err
	}
	if dst, err = appendAdverts(dst, m.Adverts); err != nil {
		return dst, err
	}
	return appendSeqMap(dst, m.Seqs)
}

func readShardSyncResponse(r *reader) *athena.ShardSyncResponse {
	return &athena.ShardSyncResponse{
		From:    r.str(),
		To:      r.str(),
		Shards:  r.u32s(),
		Adverts: readAdverts(r),
		Seqs:    r.seqMap(),
	}
}

func appendRequestBatch(dst []byte, m *athena.RequestBatch) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(m.Requests)); err != nil {
		return dst, err
	}
	for i := range m.Requests {
		if dst, err = appendObjectRequest(dst, &m.Requests[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func readRequestBatch(r *reader) *athena.RequestBatch {
	m := &athena.RequestBatch{}
	if n := r.count(); n > 0 {
		m.Requests = make([]athena.ObjectRequest, n)
		for i := range m.Requests {
			readObjectRequestInto(r, &m.Requests[i])
		}
	}
	return m
}

func appendDataBatch(dst []byte, m *athena.DataBatch) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(m.Items)); err != nil {
		return dst, err
	}
	for i := range m.Items {
		if dst, err = appendObjectData(dst, &m.Items[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func readDataBatch(r *reader) *athena.DataBatch {
	m := &athena.DataBatch{}
	if n := r.count(); n > 0 {
		m.Items = make([]athena.ObjectData, n)
		for i := range m.Items {
			readObjectDataInto(r, &m.Items[i])
		}
	}
	return m
}

// --- sub-records ------------------------------------------------------

func appendAdvert(dst []byte, a *athena.Advertisement) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, a.Source); err != nil {
		return dst, err
	}
	if dst, err = appendString(dst, a.Name); err != nil {
		return dst, err
	}
	dst = appendI64(dst, a.Size)
	dst = appendI64(dst, int64(a.Validity))
	if dst, err = appendStrings(dst, a.Labels); err != nil {
		return dst, err
	}
	dst = appendU64(dst, math.Float64bits(a.ProbTrue))
	dst = appendU64(dst, a.Seq)
	dst = appendBool(dst, a.Withdrawn)
	return dst, nil
}

func readAdvert(r *reader, a *athena.Advertisement) {
	a.Source = r.str()
	a.Name = r.str()
	a.Size = r.i64()
	a.Validity = time.Duration(r.i64())
	a.Labels = r.strs()
	a.ProbTrue = math.Float64frombits(r.u64())
	a.Seq = r.u64()
	a.Withdrawn = r.bool()
}

func appendAdverts(dst []byte, as []athena.Advertisement) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(as)); err != nil {
		return dst, err
	}
	for i := range as {
		if dst, err = appendAdvert(dst, &as[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func readAdverts(r *reader) []athena.Advertisement {
	n := r.count()
	if n == 0 {
		return nil
	}
	as := make([]athena.Advertisement, n)
	for i := range as {
		readAdvert(r, &as[i])
	}
	return as
}

// appendUpdates batches a piggyback delta into the enclosing frame: one
// count followed by the packed updates, no per-update framing.
func appendUpdates(dst []byte, us []athena.MemberUpdate) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(us)); err != nil {
		return dst, err
	}
	for i := range us {
		if dst, err = appendAdvert(dst, &us[i].Adv); err != nil {
			return dst, err
		}
		dst = appendBool(dst, us[i].Dead)
		dst = appendTime(dst, us[i].Born)
	}
	return dst, nil
}

func readUpdates(r *reader) []athena.MemberUpdate {
	n := r.count()
	if n == 0 {
		return nil
	}
	us := make([]athena.MemberUpdate, n)
	for i := range us {
		readAdvert(r, &us[i].Adv)
		us[i].Dead = r.bool()
		us[i].Born = r.time()
	}
	return us
}

func appendLabel(dst []byte, l *trust.Label) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, l.Name); err != nil {
		return dst, err
	}
	dst = appendBool(dst, l.Value)
	if dst, err = appendString(dst, l.Annotator); err != nil {
		return dst, err
	}
	if dst, err = appendStrings(dst, l.Evidence); err != nil {
		return dst, err
	}
	dst = appendTime(dst, l.Computed)
	dst = appendI64(dst, int64(l.Validity))
	return appendString(dst, l.Signature)
}

func readLabel(r *reader, l *trust.Label) {
	l.Name = r.str()
	l.Value = r.bool()
	l.Annotator = r.str()
	l.Evidence = r.strs()
	l.Computed = r.time()
	l.Validity = time.Duration(r.i64())
	l.Signature = r.str()
}

// --- primitives -------------------------------------------------------

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU32s(dst []byte, vs []uint32) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(vs)); err != nil {
		return dst, err
	}
	for _, v := range vs {
		dst = appendU32(dst, v)
	}
	return dst, nil
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendI64(dst []byte, v int64) []byte {
	return appendU64(dst, uint64(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// zeroTimeNanos is the sentinel for the zero time.Time, which has no
// representable UnixNano.
const zeroTimeNanos = math.MinInt64

func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return appendI64(dst, zeroTimeNanos)
	}
	return appendI64(dst, t.UnixNano())
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(s))
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendCount(dst []byte, n int) ([]byte, error) {
	if n > math.MaxUint16 {
		return dst, fmt.Errorf("%w: %d elements", ErrTooLarge, n)
	}
	return appendU16(dst, uint16(n)), nil
}

func appendStrings(dst []byte, ss []string) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(ss)); err != nil {
		return dst, err
	}
	for _, s := range ss {
		if dst, err = appendString(dst, s); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendStringMap(dst []byte, m map[string]string) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(m)); err != nil {
		return dst, err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if dst, err = appendString(dst, k); err != nil {
			return dst, err
		}
		if dst, err = appendString(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendSeqMap(dst []byte, m map[string]uint64) ([]byte, error) {
	var err error
	if dst, err = appendCount(dst, len(m)); err != nil {
		return dst, err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if dst, err = appendString(dst, k); err != nil {
			return dst, err
		}
		dst = appendU64(dst, m[k])
	}
	return dst, nil
}

// reader decodes the primitives, latching the first error and returning
// zero values afterwards so per-field checks aren't needed.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrBadFrame, r.off)
	}
}

func (r *reader) u8() byte {
	if r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := uint16(r.b[r.off])<<8 | uint16(r.b[r.off+1])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.off : r.off+4]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	r.off += 4
	return v
}

func (r *reader) u32s() []uint32 {
	n := r.count()
	if n == 0 {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = r.u32()
	}
	return vs
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.off : r.off+8]
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	r.off += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) time() time.Time {
	ns := r.i64()
	if ns == zeroTimeNanos || r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

func (r *reader) str() string {
	n := int(r.u16())
	if r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	// string() copies, so decoded messages never alias the frame buffer.
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) count() int {
	n := int(r.u16())
	// A count can't exceed the bytes remaining: each element is ≥1 byte.
	// Checking here stops a corrupt count from driving a huge make().
	if r.off+n > len(r.b) {
		r.fail()
		return 0
	}
	return n
}

func (r *reader) strs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func (r *reader) strMap() map[string]string {
	n := r.count()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.str()
		m[k] = r.str()
	}
	return m
}

func (r *reader) seqMap() map[string]uint64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		m[k] = r.u64()
	}
	return m
}
