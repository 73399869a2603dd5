// Package wireproto is the fixture corpus for the wireproto check: a
// miniature wire codec whose Type constants are each missing a different
// protocol artifact. TypeEcho is fully wired (zero findings prove the
// cross-reference recognizes complete coverage); TypeEchoReply cannot be
// decoded, TypeChunk cannot be priced or fuzzed and is never built in
// tests, TypeProbe is never dispatched, TypeRelay's encode case returns
// another message's ID, and TypeRetired carries the annotated exception
// for a frame kept only for decode compatibility. The second const block
// is a registry no switch refers to: a codec the check cannot see.
package wireproto

const (
	TypeEcho = 1 + iota
	TypeEchoReply
	TypeChunk
	TypeProbe
	TypeRelay
	TypeRetired //lint:allow wireproto retired frame kept for decode compat; no new traffic to fuzz
)

const (
	TypeGhost = 100 + iota
	TypeShade
)

type Echo struct{ Seq uint64 }
type EchoReply struct{ Seq uint64 }
type Chunk struct{ Data []byte }
type Probe struct{}
type Relay struct{ Seq uint64 }
type Retired struct{}

// encodePayload walks the message and returns its type ID. The Relay
// case was pasted from Echo and still returns TypeEcho: Relay frames go
// out under the wrong ID.
func encodePayload(dst *[]byte, payload any) byte {
	switch m := payload.(type) {
	case *Echo:
		*dst = appendUint(*dst, m.Seq)
		return TypeEcho
	case *EchoReply:
		*dst = appendUint(*dst, m.Seq)
		return TypeEchoReply
	case *Chunk:
		*dst = append(*dst, m.Data...)
		return TypeChunk
	case *Probe:
		return TypeProbe
	case *Relay:
		*dst = appendUint(*dst, m.Seq)
		return TypeEcho
	case *Retired:
		return TypeRetired
	}
	return 0
}

// decodePayload is missing the TypeEchoReply case: received EchoReply
// frames fail to decode.
func decodePayload(id byte) any {
	switch id {
	case TypeEcho:
		return new(Echo)
	case TypeChunk:
		return new(Chunk)
	case TypeProbe:
		return new(Probe)
	case TypeRelay:
		return new(Relay)
	case TypeRetired:
		return new(Retired)
	}
	return nil
}

// Chunk has no WireSize method: the bandwidth model cannot price it.
func (Echo) WireSize() int64      { return 8 }
func (EchoReply) WireSize() int64 { return 8 }
func (Probe) WireSize() int64     { return 0 }
func (Relay) WireSize() int64     { return 8 }
func (Retired) WireSize() int64   { return 0 }

// handleMessage is missing the Probe case: delivered Probe frames are
// silently dropped.
func handleMessage(payload any) {
	switch payload.(type) {
	case *Echo:
	case *EchoReply:
	case *Chunk:
	case *Relay:
	case *Retired:
	}
}

func appendUint(dst []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}
