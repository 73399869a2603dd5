package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"athena/internal/metrics"
	"athena/internal/simclock"
)

// ErrUnknownPeer is returned when sending to a peer that was never added.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// frameBufPool recycles frame buffers across sends so the steady-state
// hot path allocates nothing per message.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// zeroBlock is what every frame's padding is written from and checked
// against. Nothing writes to it, so all peers share it: a megabyte of
// padding goes out as sixteen iovecs pointing here instead of a megabyte
// cleared in a frame buffer. Its length is also the receive chunk: a
// connection reads at most this much of a frame at a time.
var zeroBlock [64 << 10]byte

// tcpPeer is the per-peer connection state. Each peer has its own lock so
// a slow or unreachable peer (dial timeout, blocked write) never blocks
// sends to the others. addr is guarded by the transport lock, conn and
// iov by the peer lock.
type tcpPeer struct {
	mu   sync.Mutex
	addr string
	conn net.Conn
	iov  net.Buffers // write's iovecs, kept so that a send allocates none
}

// write sends frame and then pad zero bytes from zeroBlock in one
// vectored write (writev on a TCP connection). WriteTo consumes the
// buffers it writes, so they are built again on every call, a retry
// included, and the frame always goes out from its first byte. Called
// with p.mu held.
func (p *tcpPeer) write(frame []byte, pad int) error {
	iov := append(p.iov[:0], frame)
	for ; pad > 0; pad -= len(zeroBlock) {
		iov = append(iov, zeroBlock[:min(pad, len(zeroBlock))])
	}
	p.iov = iov
	_, err := p.iov.WriteTo(p.conn)
	p.iov = iov[:0]
	return err
}

// TCPTransport implements Transport over real TCP connections, one
// long-lived outbound connection per peer, framed by a Codec. Failed
// dials and writes are retried with exponential backoff before giving
// up. It exists to show the Athena node logic runs outside the simulator
// (the paper ran one OS process per node addressed by IP:PORT).
type TCPTransport struct {
	id    string
	ln    net.Listener
	codec Codec
	head  HeadAppender // codec's AppendHead, or wholeFrames if it has none

	mu       sync.Mutex // guards peers map, peer addrs, conn sets, handler, closed
	peers    map[string]*tcpPeer
	outbound map[net.Conn]bool // dialed conns, so Close can sever a blocked write
	inbound  map[net.Conn]bool
	handler  Handler
	wg       sync.WaitGroup
	closed   bool

	retryAttempts int           // total dial/write attempts per Send
	retryBase     time.Duration // first backoff delay, doubling per attempt

	m TCPMetrics // nil fields are no-ops
}

// TCPMetrics mirrors the transport's send activity into a metrics
// registry. Any field may be nil (a nil counter is a no-op).
type TCPMetrics struct {
	// Sends counts successful message sends; SentBytes their frame bytes
	// as actually written to the socket, padding included.
	Sends, SentBytes *metrics.Counter
	// Redials counts reconnect attempts after a failed dial or write;
	// SendErrors counts messages given up on after exhausting retries.
	Redials, SendErrors *metrics.Counter
}

var _ Transport = (*TCPTransport)(nil)

// NewTCP starts a transport listening on addr (e.g. "127.0.0.1:0"),
// framing messages with codec. Call Close to stop it.
func NewTCP(id, addr string, codec Codec) (*TCPTransport, error) {
	if codec == nil {
		return nil, errors.New("transport: nil codec")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	head, ok := codec.(HeadAppender)
	if !ok {
		head = wholeFrames{codec}
	}
	t := &TCPTransport{
		id:            id,
		ln:            ln,
		codec:         codec,
		head:          head,
		peers:         make(map[string]*tcpPeer),
		outbound:      make(map[net.Conn]bool),
		inbound:       make(map[net.Conn]bool),
		retryAttempts: 4,
		retryBase:     50 * time.Millisecond,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// AddPeer registers a peer id with its dialable address.
func (t *TCPTransport) AddPeer(id, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[id]; ok {
		p.addr = addr
		return
	}
	t.peers[id] = &tcpPeer{addr: addr}
}

// Peers implements PeerLister: a copy of the known peer addresses.
func (t *TCPTransport) Peers() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.peers))
	for id, p := range t.peers {
		out[id] = p.addr
	}
	return out
}

var (
	_ PeerAdder  = (*TCPTransport)(nil)
	_ Addresser  = (*TCPTransport)(nil)
	_ PeerLister = (*TCPTransport)(nil)
)

// SetRetryPolicy tunes Send's reconnect behavior: attempts total tries per
// message (minimum 1) with the backoff doubling from base between tries.
func (t *TCPTransport) SetRetryPolicy(attempts int, base time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	t.retryAttempts = attempts
	t.retryBase = base
}

// Instrument mirrors the transport's send activity into m from now on.
func (t *TCPTransport) Instrument(m TCPMetrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = m
}

// Self implements Transport.
func (t *TCPTransport) Self() string { return t.id }

// Neighbors implements Transport.
func (t *TCPTransport) Neighbors() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.peers))
	for id := range t.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Clock implements Transport.
func (t *TCPTransport) Clock() simclock.Clock { return simclock.WallClock{} }

// Send implements Transport: it encodes a frame's head with the codec,
// lazily dials the peer and writes the head and the frame's zero padding
// in one vectored write, and on dial or write failure redials with
// exponential backoff (per SetRetryPolicy) before reporting the last
// error. Only the target peer's lock is held, so an unresponsive peer
// stalls no one else.
func (t *TCPTransport) Send(to string, size int64, payload any) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("transport: closed")
	}
	p, ok := t.peers[to]
	var addr string
	if ok {
		addr = p.addr
	}
	attempts, backoff := t.retryAttempts, t.retryBase
	m := t.m
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}

	buf := frameBufPool.Get().(*[]byte)
	defer func() {
		*buf = (*buf)[:0]
		frameBufPool.Put(buf)
	}()
	frame, pad, err := t.head.AppendHead((*buf)[:0], t.id, size, payload)
	if err != nil {
		// An unencodable payload is a programming error, not a flaky
		// link; retrying cannot help.
		m.SendErrors.Inc()
		return fmt.Errorf("transport: encode for %s: %w", to, err)
	}
	*buf = frame

	p.mu.Lock()
	defer p.mu.Unlock()
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			m.Redials.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		if p.conn == nil {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				lastErr = fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
				continue
			}
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				conn.Close()
				return errors.New("transport: closed")
			}
			t.outbound[conn] = true
			t.mu.Unlock()
			p.conn = conn
		}
		if err := p.write(frame, pad); err != nil {
			// Drop the broken connection so the next attempt redials.
			p.conn.Close()
			t.mu.Lock()
			delete(t.outbound, p.conn)
			closed := t.closed
			t.mu.Unlock()
			p.conn = nil
			if closed {
				return errors.New("transport: closed")
			}
			lastErr = fmt.Errorf("transport: send to %s: %w", to, err)
			continue
		}
		m.Sends.Inc()
		m.SentBytes.Add(int64(len(frame) + pad))
		return nil
	}
	m.SendErrors.Inc()
	return lastErr
}

// Close stops the listener and all connections, waiting for reader
// goroutines to exit.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	// Close raw connections without taking peer locks: a writer blocked in
	// a write holds its peer lock, and severing the socket is what
	// unblocks it.
	for c := range t.outbound {
		c.Close()
	}
	for c := range t.inbound {
		c.Close()
	}
	t.outbound = make(map[net.Conn]bool)
	t.mu.Unlock()

	err := t.ln.Close()
	t.wg.Wait()
	return err
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop reads length-prefixed frames off one inbound connection. Any
// malformed frame — length prefix out of bounds, short body, a codec
// decode error or a non-zero padding byte — severs the connection; the
// sender's redial path re-establishes it. The handler's size argument is
// the actual frame length read off the wire, never a sender-asserted
// figure, and the handler runs only once the whole frame has passed.
//
// A frame is read a chunk of len(zeroBlock) bytes at a time into one
// buffer, so a connection holds a chunk, not the largest frame its peer
// ever sent. Only a message longer than a chunk is gathered whole, and
// only while it arrives (readFrame).
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[conn] = true
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// One read fills the bufio buffer with a small frame's prefix and body
	// together; a bulk chunk still lands directly in buf, because bufio
	// reads straight into any destination at least as large as its own
	// buffer.
	r := bufio.NewReader(conn)
	var buf []byte
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
		// Guard before allocating: a corrupt or hostile prefix must not
		// drive an unbounded allocation. The body must at least hold the
		// version and type bytes.
		if n < 2 || n > MaxFrame-4 {
			return
		}
		if len(buf) < min(n, len(zeroBlock)) {
			buf = make([]byte, readBufSize(n))
		}
		from, payload, err := t.readFrame(r, buf, n)
		if err != nil {
			return
		}
		t.mu.Lock()
		h := t.handler
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(from, int64(4+n), payload)
		}
	}
}

// readBufSize is the size of the buffer a connection reads an n-byte
// frame body into: 4 KB while its frames are small, one chunk once a
// frame is longer. It never holds more.
func readBufSize(n int) int {
	if n <= 4<<10 {
		return 4 << 10
	}
	return len(zeroBlock)
}

// errPadding reports a non-zero byte where a frame's padding should be.
var errPadding = errors.New("transport: non-zero padding")

// readFrame reads an n-byte frame body off r and decodes it, using buf
// (at least min(n, one chunk) long) as scratch. A body that fits in one
// chunk is read whole and handed to Decode. A longer one is read a chunk
// at a time, in buf: Decode is handed the first chunk, and if the message
// ends there, every later byte is padding, compared with zeroBlock in the
// buffer that just received it. If the first chunk does not decode (the
// message is longer than a chunk, or corrupt), the body is gathered
// whole, growing only as its bytes arrive, and decoded once it is
// complete; that buffer is dropped as soon as Decode returns.
func (t *TCPTransport) readFrame(r io.Reader, buf []byte, n int) (string, any, error) {
	chunk := buf[:min(n, len(zeroBlock))]
	if _, err := io.ReadFull(r, chunk); err != nil {
		return "", nil, err
	}
	from, payload, err := t.codec.Decode(chunk)
	if len(chunk) == n {
		return from, payload, err
	}
	var whole []byte
	if err != nil {
		whole = append([]byte(nil), chunk...)
	}
	for rest := n - len(chunk); rest > 0; rest -= len(chunk) {
		chunk = chunk[:min(rest, len(chunk))]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return "", nil, err
		}
		if whole != nil {
			whole = append(whole, chunk...)
		} else if !isZero(chunk) {
			return "", nil, errPadding
		}
	}
	if whole != nil {
		return t.codec.Decode(whole)
	}
	return from, payload, nil
}

// isZero reports whether b, at most a chunk long, is all zero bytes
// (bytes.Equal is the runtime's vectorised memequal).
func isZero(b []byte) bool { return bytes.Equal(b, zeroBlock[:len(b)]) }
