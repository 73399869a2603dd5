package transport

import (
	"bufio"
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

// frameBufPool recycles frame buffers across sends and reads so the
// steady-state hot path allocates nothing per message.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// tcpPeer is the per-peer connection state. Each peer has its own lock so
// a slow or unreachable peer (dial timeout, blocked write) never blocks
// sends to the others. addr is guarded by the transport lock, conn by the
// peer lock.
type tcpPeer struct {
	mu   sync.Mutex
	addr string
	conn net.Conn
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
	// as actually written to the socket.
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
	t := &TCPTransport{
		id:            id,
		ln:            ln,
		codec:         codec,
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

// RemovePeer forgets a peer, closing any open connection to it. Used when
// a peer leaves the mesh.
func (t *TCPTransport) RemovePeer(id string) {
	t.mu.Lock()
	p, ok := t.peers[id]
	if ok {
		delete(t.peers, id)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		t.mu.Lock()
		delete(t.outbound, p.conn)
		t.mu.Unlock()
		p.conn = nil
	}
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

// Send implements Transport: it encodes one frame with the codec, lazily
// dials the peer, and on dial or write failure redials with exponential
// backoff (per SetRetryPolicy) before reporting the last error. Only the
// target peer's lock is held, so an unresponsive peer stalls no one else.
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
	frame, err := t.codec.Append((*buf)[:0], t.id, size, payload)
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
		if _, err := p.conn.Write(frame); err != nil {
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
		m.SentBytes.Add(int64(len(frame)))
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
	// Write holds its peer lock, and severing the socket is what unblocks
	// it.
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
// malformed frame — length prefix out of bounds, short body, or a codec
// decode error — severs the connection; the sender's redial path
// re-establishes it. The handler's size argument is the actual frame
// length read off the wire, never a sender-asserted figure.
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
	buf := frameBufPool.Get().(*[]byte)
	defer func() {
		*buf = (*buf)[:0]
		frameBufPool.Put(buf)
	}()
	// One read fills the buffer with a small frame's prefix and body
	// together; a bulk body still lands directly in the frame buffer,
	// because bufio reads straight into any destination at least as large
	// as its own buffer.
	r := bufio.NewReader(conn)
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
		if cap(*buf) < n {
			*buf = make([]byte, 0, n)
		}
		body := (*buf)[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		from, payload, err := t.codec.Decode(body)
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
