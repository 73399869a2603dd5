// Package transport abstracts message delivery between Athena nodes so the
// same node logic runs unchanged over the deterministic network simulator
// (internal/netsim) and over real TCP sockets (cmd/athenad). Messages carry
// an explicit wire size: the simulator accounts for it analytically, while
// the TCP transport actually pads frames to it so measured traffic matches.
package transport

import (
	"fmt"

	"athena/internal/netsim"
	"athena/internal/simclock"
)

// Handler receives messages addressed to the local node.
type Handler func(from string, size int64, payload any)

// Transport sends messages between named nodes.
type Transport interface {
	// Self returns the local node's id.
	Self() string
	// Neighbors lists directly reachable peers.
	Neighbors() []string
	// Send transmits payload (accounted as size bytes) to a directly
	// reachable peer.
	Send(to string, size int64, payload any) error
	// SetHandler installs the receive callback. Must be called before
	// traffic flows.
	SetHandler(h Handler)
	// Clock is the time source consistent with the transport's world
	// (virtual for the simulator, wall for TCP).
	Clock() simclock.Clock
}

// SimTransport adapts one netsim node to the Transport interface.
type SimTransport struct {
	net *netsim.Network
	id  string
	// codec, when set, is in the loop: see NewSimCodec.
	codec Codec
}

var _ Transport = (*SimTransport)(nil)

// NewSim returns a Transport bound to node id on the simulated network.
// The node must already exist in the network.
func NewSim(net *netsim.Network, id string) *SimTransport {
	return &SimTransport{net: net, id: id}
}

// NewSimCodec is NewSim with codec in the loop: a payload is encoded when
// it is sent, and the receiver is handed its decoding instead of the
// sender's struct, as over TCP. Each receiving node decodes through one
// Decoder of its own (StreamDecoder). The network still charges the size
// the sender gave. A run with the codec in the loop decides exactly as
// one without, unless the codec drops a field or the plain run's sender
// and receiver write through a slice they share; that is what it is for.
// A nil codec is NewSim.
func NewSimCodec(net *netsim.Network, id string, codec Codec) *SimTransport {
	return &SimTransport{net: net, id: id, codec: codec}
}

// Self implements Transport.
func (s *SimTransport) Self() string { return s.id }

// Neighbors implements Transport.
func (s *SimTransport) Neighbors() []string { return s.net.Neighbors(s.id) }

// Send implements Transport.
func (s *SimTransport) Send(to string, size int64, payload any) error {
	return s.SendPriority(to, size, 0, payload)
}

// SetHandler implements Transport.
func (s *SimTransport) SetHandler(h Handler) {
	handler := netsim.Handler(h)
	if s.codec != nil {
		// The node's one decoder, as a TCP connection has one: every frame
		// reaches the node through it.
		dec := newDecoder(s.codec)
		handler = func(_ string, size int64, payload any) {
			// The frame is one this network's own sender encoded: a frame
			// the codec cannot read back is the codec's bug, not a peer's.
			body, _ := payload.([]byte)
			from, msg, err := dec.Decode(body)
			if err != nil {
				panic(fmt.Sprintf("transport: %s: decoding a simulated frame: %v", s.id, err))
			}
			h(from, size, msg)
		}
	}
	// Errors are impossible here: the node was validated at construction.
	_ = s.net.SetHandler(s.id, handler)
}

// Clock implements Transport.
func (s *SimTransport) Clock() simclock.Clock { return s.net.ClockFor(s.id) }

// PrioritySender is the optional interface of transports that support
// priority classes (Section V-C preferential treatment). The simulated
// transport implements it; plain TCP does not (the kernel socket is FIFO).
type PrioritySender interface {
	// SendPriority is Send with a priority class; higher goes first.
	SendPriority(to string, size int64, priority int, payload any) error
}

var _ PrioritySender = (*SimTransport)(nil)

// SendPriority implements PrioritySender.
func (s *SimTransport) SendPriority(to string, size int64, priority int, payload any) error {
	if s.codec != nil {
		// Size 0: the frame is not padded, and the network charges size.
		frame, err := s.codec.Append(nil, s.id, 0, payload)
		if err != nil {
			return err
		}
		payload = frame[4:] // the body, after the length prefix
	}
	return s.net.SendPriority(s.id, to, size, priority, payload)
}

// PeerAdder is the optional interface of transports whose peer set can
// grow at runtime — the membership join handshake uses it to learn
// dialable addresses. The TCP transport implements it; the simulator's
// topology is fixed, so SimTransport does not.
type PeerAdder interface {
	// AddPeer registers a peer's dialable address.
	AddPeer(id, addr string)
}

// Addresser is the optional interface of transports that have a dialable
// address of their own to advertise in join handshakes.
type Addresser interface {
	// Addr returns the local listening address.
	Addr() string
}

// PeerLister is the optional interface of transports that track peer
// addresses; a join responder shares them so the newcomer can complete
// the mesh.
type PeerLister interface {
	// Peers returns a copy of the known peer id -> address map.
	Peers() map[string]string
}
