package transport

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/metrics"
)

// Send retries the dial with backoff: a peer that comes up moments after
// the first attempt still receives the padded frame within one Send call.
func TestTCPSendRedialsWithBackoff(t *testing.T) {
	for _, sp := range sendPaths {
		t.Run(sp.name, func(t *testing.T) { sendRedialsWithBackoff(t, sp.codec) })
	}
}

func sendRedialsWithBackoff(t *testing.T, codec Codec) {
	// Reserve an address, then free it so the first dial attempts fail.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ta, err := NewTCP("a", "127.0.0.1:0", codec)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	ta.AddPeer("b", addr)
	ta.SetRetryPolicy(6, 40*time.Millisecond)

	const size = 100_000
	received := make(chan testMsg, 1)
	// The peer appears mid-backoff.
	var tb *TCPTransport
	go func() {
		time.Sleep(100 * time.Millisecond)
		var err error
		tb, err = NewTCP("b", addr, codec)
		if err != nil {
			t.Error(err)
			return
		}
		tb.SetHandler(func(_ string, n int64, payload any) {
			if n != size {
				t.Errorf("frame of %d bytes, want %d", n, size)
			}
			if m, ok := payload.(testMsg); ok {
				received <- m
			}
		})
	}()
	defer func() {
		if tb != nil {
			tb.Close()
		}
	}()

	if err := ta.Send("b", size, testMsg{Text: "late", N: 1}); err != nil {
		t.Fatalf("Send did not survive the late listener: %v", err)
	}
	select {
	case m := <-received:
		if m.Text != "late" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
}

// failAfter stands in for a connection the peer resets mid-frame: it
// takes n bytes, then fails the write.
type failAfter struct {
	net.Conn
	n int
}

func (c *failAfter) Write(b []byte) (int, error) {
	if len(b) <= c.n {
		c.n -= len(b)
		return len(b), nil
	}
	n := c.n
	c.n = 0
	return n, errors.New("connection reset by peer")
}

func (*failAfter) Close() error { return nil }

// A write that fails inside a frame's padding is retried on a new
// connection from the frame's first byte. WriteTo consumes the buffers it
// writes, so Send must build them again for every attempt; reusing them
// would resend only the unwritten tail.
func TestTCPRetryResendsFromByteZero(t *testing.T) {
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
	ta.AddPeer("b", ln.Addr().String())
	ta.SetRetryPolicy(2, time.Millisecond)
	// The first attempt finds a connection that takes the head and part
	// of the first zero block, then fails.
	ta.peers["b"].conn = &failAfter{n: 100}

	size := 2*int64(len(zeroBlock)) + 5
	msg := testMsg{Text: "again", N: 7}
	want, err := (testCodec{}).Append(nil, "a", size, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Send("b", size, msg); err != nil {
		t.Fatal(err)
	}
	ta.Close() // ends the stream
	if got := <-read; !bytes.Equal(got, want) {
		t.Errorf("the retry put %d bytes on the new connection that are not the %d-byte frame", len(got), len(want))
	}
	if n := sent.Value(); n != int64(len(want)) {
		t.Errorf("SentBytes = %d, want the one frame's %d bytes", n, len(want))
	}
}

// A peer that is permanently unreachable exhausts its attempts and Send
// reports the last dial error instead of hanging.
func TestTCPSendExhaustsRetries(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ta, err := NewTCP("a", "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	ta.AddPeer("gone", addr)
	ta.SetRetryPolicy(3, 5*time.Millisecond)

	if err := ta.Send("gone", 10, testMsg{}); err == nil {
		t.Fatal("Send to a dead peer succeeded")
	} else if !strings.Contains(err.Error(), "dial") {
		t.Errorf("error = %v, want a dial failure", err)
	}
}

// A peer whose reader is stuck must not stall sends to other peers: the
// transport serializes per peer, not transport-wide. On the old
// transport-wide lock, the blocked write to the stuck peer held every
// other Send hostage. Close must still cut the blocked write.
func TestTCPNoHeadOfLineBlocking(t *testing.T) {
	for _, sp := range sendPaths {
		t.Run(sp.name, func(t *testing.T) { noHeadOfLineBlocking(t, sp.codec) })
	}
}

func noHeadOfLineBlocking(t *testing.T, codec Codec) {
	// stuck accepts connections and never reads from them.
	stuck, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	go func() {
		for {
			if _, err := stuck.Accept(); err != nil {
				return
			}
		}
	}()

	healthy, err := NewTCP("healthy", "127.0.0.1:0", codec)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	delivered := make(chan struct{}, 1)
	healthy.SetHandler(func(string, int64, any) {
		select {
		case delivered <- struct{}{}:
		default:
		}
	})

	ta, err := NewTCP("a", "127.0.0.1:0", codec)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	ta.AddPeer("stuck", stuck.Addr().String())
	ta.AddPeer("healthy", healthy.Addr())

	// Jam the stuck peer's connection: keep writing 1 MB frames, almost
	// all padding, until the kernel buffers fill and the write blocks.
	var jammedSends int32
	jamDone := make(chan struct{})
	go func() {
		defer close(jamDone)
		for i := 0; i < 64; i++ {
			if err := ta.Send("stuck", 1<<20, "jam"); err != nil {
				return // transport closed at test end
			}
			atomic.AddInt32(&jammedSends, 1)
		}
	}()
	// Wait until the writer has stopped making progress (blocked in write).
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := atomic.LoadInt32(&jammedSends)
		time.Sleep(100 * time.Millisecond)
		if atomic.LoadInt32(&jammedSends) == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer to stuck peer never blocked")
		}
	}

	done := make(chan error, 1)
	go func() { done <- ta.Send("healthy", 4, "ping") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Send to healthy peer blocked behind the stuck peer")
	}
	select {
	case <-delivered:
	case <-time.After(3 * time.Second):
		t.Fatal("healthy peer never received the message")
	}

	ta.Close()
	select {
	case <-jamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cut the write blocked on the stuck peer")
	}
}
