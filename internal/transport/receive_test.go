package transport_test

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"athena/internal/athena"
	"athena/internal/transport"
	"athena/internal/wire"
)

// A codecShape is a codec the receive path is run with: wire.Codec and
// TestCodec lay out their messages differently, and both keep the rule
// the transport reads a long frame by (zero padding after the message,
// and a body cut inside the message refused).
type codecShape struct {
	name  string
	codec transport.Codec
	// msg returns a payload carrying tag whose unpadded frame body, sent
	// by "s", is exactly head bytes long.
	msg func(t testing.TB, tag, head int) any
	// tag reads the tag back out of a decoded payload.
	tag func(payload any) int
}

var shapes = []codecShape{
	{"wire", wire.Codec{}, wireMsg, func(p any) int { return int(p.(*athena.ObjectData).Version) }},
	{"testCodec", transport.TestCodec{}, textMsg, func(p any) int {
		n, _ := strconv.Atoi(p.(string)[:6])
		return n
	}},
}

// bodyLen is the length of m's unpadded frame body under codec.
func bodyLen(t testing.TB, codec transport.Codec, m any) int {
	t.Helper()
	frame, err := codec.Append(nil, "s", 0, m)
	if err != nil {
		t.Fatal(err)
	}
	return len(frame) - 4
}

// wireMsg is an ObjectData tagged by its Version, grown to head bytes by
// labels of 60 000 bytes and then its object name.
func wireMsg(t testing.TB, tag, head int) any {
	t.Helper()
	m := &athena.ObjectData{Version: uint64(tag), SourceNode: "s", Origin: "r", QueryID: "r/q1"}
	extra := head - bodyLen(t, wire.Codec{}, m)
	for extra > 1<<16-1 {
		m.Labels = append(m.Labels, strings.Repeat("l", 60_000))
		extra -= 2 + 60_000
	}
	m.Object = strings.Repeat("o", extra)
	if n := bodyLen(t, wire.Codec{}, m); n != head {
		t.Fatalf("head of %d bytes, want %d", n, head)
	}
	return m
}

// textMsg is a string payload for TestCodec: the tag in six digits, then
// dots up to head bytes of body.
func textMsg(t testing.TB, tag, head int) any {
	t.Helper()
	s := fmt.Sprintf("%06d", tag)
	s += strings.Repeat(".", head-bodyLen(t, transport.TestCodec{}, s))
	if n := bodyLen(t, transport.TestCodec{}, s); n != head {
		t.Fatalf("head of %d bytes, want %d", n, head)
	}
	return s
}

type delivery struct {
	tag  int
	size int64
}

// receiver is a transport "r" that reports every frame it hands its
// handler.
type receiver struct {
	tr  *transport.TCPTransport
	got chan delivery
}

func newReceiver(t testing.TB, sh codecShape) *receiver {
	t.Helper()
	tr, err := transport.NewTCP("r", "127.0.0.1:0", sh.codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	// Each test reads a delivery before it sends the next frame. The slack
	// lets a frame that should not have arrived wait for expect to report
	// it without blocking the reader.
	rx := &receiver{tr: tr, got: make(chan delivery, 16)}
	tr.SetHandler(func(_ string, size int64, p any) { rx.got <- delivery{sh.tag(p), size} })
	return rx
}

// sender returns a transport "s" that knows rx as peer "r".
func (rx *receiver) sender(t testing.TB, sh codecShape) *transport.TCPTransport {
	t.Helper()
	tx, err := transport.NewTCP("s", "127.0.0.1:0", sh.codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	tx.AddPeer("r", rx.tr.Addr())
	return tx
}

// expect fails unless the next frame the handler sees is tag's, size
// bytes long.
func (rx *receiver) expect(t testing.TB, tag, size int) {
	t.Helper()
	// A stopped timer, not time.After: at this module's go version an
	// unstopped timer stays on the heap until it fires, and
	// BenchmarkTCPReceivePadded would count one per frame.
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	select {
	case d := <-rx.got:
		if d != (delivery{tag, int64(size)}) {
			t.Fatalf("handler got frame %d of %d bytes, want frame %d of %d", d.tag, d.size, tag, size)
		}
	case <-timeout.C:
		t.Fatalf("frame %d never delivered", tag)
	}
}

// liveHeap is the heap in use after two collections; the second empties
// every sync.Pool, so pooled buffers do not count.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// Frames around the receive chunk arrive whole and in order on both
// shapes: bodies one byte either side of a chunk, a head that ends the
// chunk exactly, and heads that do not fit in one, which the reader must
// gather whole and still decode.
func TestTCPReceiveAtChunkEdges(t *testing.T) {
	const c = transport.Chunk
	cases := []struct{ head, n int }{
		{100, c - 1},
		{100, c},
		{100, c + 1},
		{c - 1, c + 100},
		{c, c + 100},
		{c + 1, c + 100},
		{2*c + 3, 3 * c},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rx := newReceiver(t, sh)
			tx := rx.sender(t, sh)
			for i, tc := range cases {
				if err := tx.Send("r", int64(4+tc.n), sh.msg(t, i, tc.head)); err != nil {
					t.Fatal(err)
				}
				rx.expect(t, i, 4+tc.n)
			}
		})
	}
}

// One non-zero padding byte anywhere severs the connection before the
// handler runs, on both shapes: the first and last padding byte, both
// sides of every chunk boundary (where a streamed check hands over from
// one read to the next), and a tail shorter than a machine word. The
// listener keeps serving: the next frame, from a sender that dials
// afresh, is delivered.
func TestTCPPaddingCheckedAtChunkBoundaries(t *testing.T) {
	const c = transport.Chunk
	const head, n = 100, 3*c + 5
	offsets := []int{head, n - 1}
	for b := c; b < n; b += c {
		offsets = append(offsets, b-1, b)
	}
	for o := n - 5; o < n; o++ {
		offsets = append(offsets, o)
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rx := newReceiver(t, sh)
			frame, err := sh.codec.Append(nil, "s", int64(4+n), sh.msg(t, 0, head))
			if err != nil {
				t.Fatal(err)
			}
			body := frame[4:]
			for i, o := range offsets {
				body[o] = 1
				conn, err := net.Dial("tcp", rx.tr.Addr())
				if err != nil {
					t.Fatal(err)
				}
				// The receiver may sever the connection before the frame
				// is all written, so a failed write is expected.
				conn.Write(frame)
				transport.ExpectSevered(t, conn)
				conn.Close()
				body[o] = 0

				tx := rx.sender(t, sh)
				if err := tx.Send("r", int64(4+n), sh.msg(t, i+1, head)); err != nil {
					t.Fatal(err)
				}
				rx.expect(t, i+1, 4+n) // frame 0 reaching the handler fails here
				tx.Close()
			}
		})
	}
}

// holdBound is the most heap a receiving connection may hold after a
// frame: a few chunks. A reader that kept whole frames would hold the
// largest one.
const holdBound = 256 << 10

// After one frame with 32 MB of padding, the connection, still open,
// holds no more than a chunk's worth of heap.
func TestTCPReceiveHoldsAChunk(t *testing.T) {
	sh := shapes[0]
	rx := newReceiver(t, sh)
	tx := rx.sender(t, sh)
	if err := tx.Send("r", 0, sh.msg(t, 1, 100)); err != nil {
		t.Fatal(err)
	}
	rx.expect(t, 1, 104)
	base := liveHeap()
	const size = 100 + 32<<20 + 4
	if err := tx.Send("r", size, sh.msg(t, 2, 100)); err != nil {
		t.Fatal(err)
	}
	rx.expect(t, 2, size)
	held := liveHeap() - base
	if held > holdBound {
		t.Errorf("the connection holds %d KB after a 32 MB frame, want at most %d KB", held>>10, holdBound>>10)
	}
}

// A peer that announces a MaxFrame frame, sends a head and a trickle of
// zeros, then stalls, costs the receiver what it has sent, not the 64 MB
// it announced: one chunk while the head is valid and fits in a chunk,
// and no more than twice what arrived, plus the chunk, while the reader
// must gather the frame whole — for a corrupt first byte, and for a head
// that spans a chunk. Other peers are still served, and Close does not
// wait for the stalled frame.
func TestTCPHostilePrefixHoldsWhatArrived(t *testing.T) {
	const trickle = 48 << 12 // three chunks, 4 KB at a time
	cases := []struct {
		name    string
		head    int
		corrupt bool
		// bound is the most the stalled frame may hold, given the bytes
		// it has sent.
		bound func(sent int) int64
	}{
		{"valid", 100, false, func(int) int64 { return int64(transport.Chunk) + 16<<10 }},
		{"corrupt", 100, true, func(sent int) int64 { return int64(2*sent + transport.Chunk) }},
		{"long-head", transport.Chunk + 100, false, func(sent int) int64 { return int64(2*sent + transport.Chunk) }},
	}
	sh := shapes[0]
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rx := newReceiver(t, sh)
			tx := rx.sender(t, sh)
			if err := tx.Send("r", 1000, sh.msg(t, 1, 100)); err != nil {
				t.Fatal(err)
			}
			rx.expect(t, 1, 1000)
			zeros := make([]byte, 4<<10)
			head, pad, err := (wire.Codec{}).AppendHead(nil, "s", transport.MaxFrame, sh.msg(t, 9, tc.head))
			if err != nil {
				t.Fatal(err)
			}
			if len(head)+pad != transport.MaxFrame {
				t.Fatalf("frame of %d bytes, want MaxFrame", len(head)+pad)
			}
			if tc.corrupt {
				head[4]++ // the version byte
			}
			base := liveHeap()

			conn, err := net.Dial("tcp", rx.tr.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(head); err != nil {
				t.Fatal(err)
			}
			for sent := 0; sent < trickle; sent += len(zeros) {
				if _, err := conn.Write(zeros); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}

			if err := tx.Send("r", 1000, sh.msg(t, 2, 100)); err != nil {
				t.Fatal(err)
			}
			rx.expect(t, 2, 1000)
			time.Sleep(50 * time.Millisecond) // let the stalled reader take the trickle
			held := liveHeap() - base
			if bound := tc.bound(len(head) + trickle); held > bound {
				t.Errorf("a stalled MaxFrame frame holds %d KB after %d KB arrived, want at most %d KB",
					held>>10, (len(head)+trickle)>>10, bound>>10)
			}

			closed := make(chan struct{})
			go func() {
				rx.tr.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close waited on the stalled frame")
			}
			transport.ExpectSevered(t, conn)
		})
	}
}

// BenchmarkTCPReceivePadded sends 1 MB frames, almost all padding, over
// one loopback connection. held-B/op is the heap the open connection
// holds after them (both ends, counted once for the run, not per frame):
// about a chunk, where reading frames whole held the largest frame.
// ci.sh gates it; allocs/op, taken after a first frame, is what each frame
// allocates, and reads the same run to run.
func BenchmarkTCPReceivePadded(b *testing.B) {
	sh := shapes[0]
	rx := newReceiver(b, sh)
	tx := rx.sender(b, sh)
	const size = 1 << 20
	m := sh.msg(b, 0, 100)
	if err := tx.Send("r", 0, m); err != nil {
		b.Fatal(err)
	}
	rx.expect(b, 0, 104)
	base := liveHeap()
	// One frame of the measured size before the timer: the first takes the
	// chunk buffer and what the large-frame path sets up once, so the
	// timed frames count only what every frame allocates.
	if err := tx.Send("r", size, m); err != nil {
		b.Fatal(err)
	}
	rx.expect(b, 0, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send("r", size, m); err != nil {
			b.Fatal(err)
		}
		rx.expect(b, 0, size)
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-base), "held-B/op")
}
