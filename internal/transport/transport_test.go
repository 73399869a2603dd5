package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"athena/internal/metrics"
	"athena/internal/netsim"
	"athena/internal/simclock"
)

var origin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSimTransport(t *testing.T) {
	sched := simclock.New(origin)
	net := netsim.New(sched)
	net.AddNode("a", nil)
	net.AddNode("b", nil)
	if err := net.AddLink("a", "b", netsim.LinkConfig{Bandwidth: 1000}); err != nil {
		t.Fatal(err)
	}

	ta := NewSim(net, "a")
	tb := NewSim(net, "b")
	var got string
	tb.SetHandler(func(from string, size int64, payload any) {
		if from != "a" || size != 500 {
			t.Errorf("from=%s size=%d", from, size)
		}
		got, _ = payload.(string)
	})
	if ta.Self() != "a" || tb.Self() != "b" {
		t.Error("Self mismatch")
	}
	if nbs := ta.Neighbors(); len(nbs) != 1 || nbs[0] != "b" {
		t.Errorf("Neighbors = %v", nbs)
	}
	if err := ta.Send("b", 500, "ping"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != "ping" {
		t.Errorf("payload = %q", got)
	}
	if ta.Clock().Now() != sched.Now() {
		t.Error("Clock not the scheduler")
	}
}

type testMsg struct {
	Text string
	N    int
}

// testCodec is a minimal Codec for the transport's own tests, framing
// string and testMsg payloads. The production codec lives in
// internal/wire, which depends on the athena message set and therefore
// cannot be imported from this package.
type testCodec struct{}

func (testCodec) Append(dst []byte, from string, size int64, payload any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	var kind byte
	var text string
	var n uint16
	switch p := payload.(type) {
	case string:
		kind, text = 1, p
	case testMsg:
		kind, text, n = 2, p.Text, uint16(p.N)
	default:
		return dst[:start], fmt.Errorf("testCodec: unsupported payload %T", payload)
	}
	dst = append(dst, kind)
	dst = append(dst, byte(len(from)>>8), byte(len(from)))
	dst = append(dst, from...)
	dst = append(dst, byte(len(text)>>24), byte(len(text)>>16), byte(len(text)>>8), byte(len(text)))
	dst = append(dst, text...)
	dst = append(dst, byte(n>>8), byte(n))
	if raw := int64(len(dst) - start); size > raw {
		dst = append(dst, make([]byte, size-raw)...)
	}
	body := len(dst) - start - 4
	dst[start] = byte(body >> 24)
	dst[start+1] = byte(body >> 16)
	dst[start+2] = byte(body >> 8)
	dst[start+3] = byte(body)
	return dst, nil
}

func (testCodec) Decode(body []byte) (string, any, error) {
	if len(body) < 3 {
		return "", nil, errors.New("testCodec: short frame")
	}
	kind := body[0]
	fl := int(body[1])<<8 | int(body[2])
	if 3+fl > len(body) {
		return "", nil, errors.New("testCodec: bad from length")
	}
	from := string(body[3 : 3+fl])
	rest := body[3+fl:]
	if len(rest) < 4 {
		return "", nil, errors.New("testCodec: short text length")
	}
	tl := int(rest[0])<<24 | int(rest[1])<<16 | int(rest[2])<<8 | int(rest[3])
	if 4+tl > len(rest) {
		return "", nil, errors.New("testCodec: bad text length")
	}
	text := string(rest[4 : 4+tl])
	rest = rest[4+tl:]
	var payload any
	switch kind {
	case 1:
		payload = text
	case 2:
		if len(rest) < 2 {
			return "", nil, errors.New("testCodec: short N")
		}
		payload = testMsg{Text: text, N: int(rest[0])<<8 | int(rest[1])}
		rest = rest[2:]
	default:
		return "", nil, fmt.Errorf("testCodec: unknown kind %d", kind)
	}
	// Whatever remains must be padding, as in internal/wire.
	for _, b := range rest {
		if b != 0 {
			return "", nil, errors.New("testCodec: non-zero padding")
		}
	}
	return from, payload, nil
}

// headCodec is testCodec with its padding left to the transport: the
// head is testCodec's unpadded frame, its length prefix counting pad more
// bytes.
type headCodec struct{ testCodec }

func (c headCodec) AppendHead(dst []byte, from string, size int64, payload any) ([]byte, int, error) {
	start := len(dst)
	frame, err := c.Append(dst, from, 0, payload)
	if err != nil {
		return frame, 0, err
	}
	pad := 0
	if raw := int64(len(frame) - start); size > raw {
		pad = int(size - raw)
	}
	binary.BigEndian.PutUint32(frame[start:], uint32(len(frame)-start-4+pad))
	return frame, pad, nil
}

// sendPaths runs a socket test once per way Send builds a frame: whole,
// from Append, and as a head whose padding the transport writes.
var sendPaths = []struct {
	name  string
	codec Codec
}{{"append", testCodec{}}, {"head", headCodec{}}}

// readStream accepts one connection on ln and sends everything read from
// it until the sender closes it (nil if nothing connects in time).
func readStream(ln net.Listener, out chan<- []byte) {
	conn, err := ln.Accept()
	if err != nil {
		out <- nil
		return
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	b, _ := io.ReadAll(conn)
	out <- b
}

// TestTCPPaddedStreamMatchesAppend reads off a raw socket what Send puts
// there for two padded frames from a HeadAppender: exactly Append's two
// frames back to back, so padding of the wrong length shifts the second.
// SentBytes counts the padding Send never built.
func TestTCPPaddedStreamMatchesAppend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	read := make(chan []byte, 1)
	go readStream(ln, read)

	ta, err := NewTCP("a", "127.0.0.1:0", headCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	sent := new(metrics.Counter)
	ta.Instrument(TCPMetrics{SentBytes: sent})
	ta.AddPeer("raw", ln.Addr().String())

	// Three whole zero blocks and a tail, then padding inside one block.
	frames := []struct {
		size int64
		msg  testMsg
	}{
		{3*int64(len(zeroBlock)) + 17, testMsg{Text: "first", N: 1}},
		{1000, testMsg{Text: "second", N: 2}},
	}
	var want []byte
	for _, f := range frames {
		if want, err = (testCodec{}).Append(want, "a", f.size, f.msg); err != nil {
			t.Fatal(err)
		}
		if err := ta.Send("raw", f.size, f.msg); err != nil {
			t.Fatal(err)
		}
	}
	ta.Close() // ends the stream
	if got := <-read; !bytes.Equal(got, want) {
		t.Errorf("the socket carried %d bytes that are not Append's %d", len(got), len(want))
	}
	if n := sent.Value(); n != int64(len(want)) {
		t.Errorf("SentBytes = %d, want the %d bytes on the wire", n, len(want))
	}
}

// TestTCPPaddedSendAllocs: a megabyte-padded Send to a live peer allocates
// nothing, whole or as a head. The iovecs are kept on the peer, and the
// pooled frame buffer is reused either way.
func TestTCPPaddedSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, sp := range sendPaths {
		t.Run(sp.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			// The peer reads into one buffer, so it allocates nothing the
			// count could pick up.
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				buf := make([]byte, 64<<10)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
			ta, err := NewTCP("a", "127.0.0.1:0", sp.codec)
			if err != nil {
				t.Fatal(err)
			}
			defer ta.Close()
			ta.AddPeer("sink", ln.Addr().String())
			var msg any = testMsg{Text: "frame", N: 1}
			got := testing.AllocsPerRun(20, func() {
				if err := ta.Send("sink", 1<<20, msg); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%v allocations per padded Send, want 0", got)
			}
		})
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP("b", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	ta.AddPeer("b", tb.Addr())
	tb.AddPeer("a", ta.Addr())

	var mu sync.Mutex
	received := make(map[string][]testMsg)
	done := make(chan struct{}, 1)
	tb.SetHandler(func(from string, size int64, payload any) {
		msg, ok := payload.(testMsg)
		if !ok {
			t.Errorf("payload type %T", payload)
			return
		}
		mu.Lock()
		received[from] = append(received[from], msg)
		n := len(received["a"])
		mu.Unlock()
		if n == 3 {
			done <- struct{}{}
		}
	})

	for i := 0; i < 3; i++ {
		if err := ta.Send("b", 100, testMsg{Text: "hi", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for messages")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range received["a"] {
		if m.N != i {
			t.Errorf("out of order: %v", received["a"])
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	if err := ta.Send("ghost", 1, nil); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestTCPBidirectional(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP("b", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ta.AddPeer("b", tb.Addr())
	tb.AddPeer("a", ta.Addr())

	gotA := make(chan string, 1)
	ta.SetHandler(func(from string, _ int64, payload any) {
		s, _ := payload.(string)
		gotA <- s
	})
	tb.SetHandler(func(from string, _ int64, payload any) {
		if err := tb.Send("a", 10, "pong"); err != nil {
			t.Error(err)
		}
	})
	if err := ta.Send("b", 10, "ping"); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-gotA:
		if s != "pong" {
			t.Errorf("got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPCloseIdempotentAndSendAfterClose(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ta.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := ta.Send("b", 1, nil); err == nil {
		t.Error("Send after Close succeeded")
	}
}

// expectSevered fails unless the remote end closes conn promptly.
func expectSevered(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection stayed open after hostile frame")
	}
}

// TestTCPHostileLengthPrefixSeversConnection drives the receive guard: a
// length prefix past MaxFrame must sever the connection before any
// allocation, and a well-formed frame that fails to decode must sever it
// too. The transport keeps accepting afterwards, so a legitimate sender
// recovers through its redial path.
func TestTCPHostileLengthPrefixSeversConnection(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	got := make(chan string, 1)
	ta.SetHandler(func(from string, _ int64, payload any) {
		if s, ok := payload.(string); ok {
			got <- s
		}
	})

	hostile := [][]byte{
		{0xff, 0xff, 0xff, 0xff},          // length prefix far past MaxFrame
		{0x00, 0x00, 0x00, 0x01, 0x00},    // body too short to hold a header
		{0x00, 0x00, 0x00, 0x03, 9, 9, 9}, // in-bounds length, undecodable body
	}
	for _, frame := range hostile {
		conn, err := net.Dial("tcp", ta.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		expectSevered(t, conn)
		conn.Close()
	}

	// The listener must still serve well-behaved peers.
	tb, err := NewTCP("b", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.AddPeer("a", ta.Addr())
	if err := tb.Send("a", 10, "alive"); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "alive" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for post-sever delivery")
	}
}
