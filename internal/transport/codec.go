package transport

// MaxFrame bounds the total length of one TCP frame, length prefix
// included. The receive loop refuses to allocate past it, so a corrupt
// or hostile length prefix cannot drive an unbounded allocation; codecs
// must refuse to produce larger frames.
const MaxFrame = 64 << 20

// Codec frames payloads for the TCP transport. The concrete codec for
// Athena's message set lives in internal/wire; the transport only needs
// the framing contract, which keeps the package dependency-free of the
// message definitions.
type Codec interface {
	// Append appends one complete frame — 4-byte big-endian length
	// prefix (counting everything after itself) followed by the body —
	// onto dst and returns the extended slice. from is the sender id;
	// size is the sender's modeled wire size, which the codec pads the
	// frame to with zero bytes when the raw encoding is smaller. On error
	// dst is returned unmodified. A codec that also implements
	// HeadAppender leaves those zeros for the transport to write.
	Append(dst []byte, from string, size int64, payload any) ([]byte, error)
	// Decode parses a frame body (everything after the length prefix)
	// into the sender id and payload. An error means the frame is
	// corrupt and the connection should be severed.
	//
	// The TCP transport hands Decode only the first chunk of a long
	// frame, so Decode must keep two rules: every byte after the message
	// is zero padding, and a body that ends inside the message is an
	// error. Then a first chunk that decodes is the whole message, and
	// the transport checks the rest of the frame for zeros itself; one
	// that does not is read whole and decoded again. A codec that also
	// implements StreamDecoder decodes each stream through its own
	// Decoder instead, under the same rules.
	Decode(body []byte) (from string, payload any, err error)
}

// Decoder decodes the frames of one stream, as Codec.Decode does. It may
// keep state between frames (internal/wire's keeps the strings a stream
// repeats), so each stream has its own and only that stream's reader
// calls it.
type Decoder interface {
	Decode(body []byte) (from string, payload any, err error)
}

// StreamDecoder is the optional half of a Codec whose decoding keeps
// per-stream state. The TCP transport asks for one Decoder per inbound
// connection, and a SimTransport with a codec in the loop for one per
// receiving node; a Codec without the method decodes every frame with
// Decode.
type StreamDecoder interface {
	NewDecoder() Decoder
}

// newDecoder is codec's Decoder for one stream: its own when it has
// one, the codec itself otherwise.
func newDecoder(codec Codec) Decoder {
	if sd, ok := codec.(StreamDecoder); ok {
		return sd.NewDecoder()
	}
	return codec
}

// HeadAppender is the optional half of a Codec whose frames end in zero
// padding. AppendHead appends Append's frame without its trailing pad
// zero bytes and returns pad; the length prefix counts them, so the head
// followed by pad zeros is Append's frame byte for byte. The TCP
// transport writes that padding itself, by reference from one shared
// zero block, instead of building it in the frame buffer.
type HeadAppender interface {
	AppendHead(dst []byte, from string, size int64, payload any) (frame []byte, pad int, err error)
}

// wholeFrames gives a Codec without AppendHead the HeadAppender shape:
// its frames come complete, with no padding left to write.
type wholeFrames struct{ Codec }

func (w wholeFrames) AppendHead(dst []byte, from string, size int64, payload any) ([]byte, int, error) {
	frame, err := w.Append(dst, from, size, payload)
	return frame, 0, err
}
