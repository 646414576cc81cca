package hw

import "sort"

// NIC models a gigabit Ethernet interface as a pair of packet queues
// with a per-packet latency and a serialization (bandwidth) cost. The
// network experiments (thttpd, ssh transfers, the C10K harness) move
// their bytes through here, so large transfers become NIC-bound —
// reproducing the paper's "negligible reduction for large files" shape.
//
// Receive-side buffering is indexed by destination port: each port gets
// its own bounded queue, so a stack serving tens of thousands of
// connections dequeues in O(1) instead of scanning one shared ring.
// The set of ports with pending packets is kept sorted — that list is
// the NIC's "descriptor ring", and draining it in port order is what
// keeps multi-port delivery deterministic under -hostpar.
//
// Like the disk, the wire is untrusted: the peer helper methods expose
// everything in flight, which is why ghosting applications encrypt
// network payloads.
type NIC struct {
	clock *Clock
	// rxq holds the per-port receive queues: packets delivered to this
	// NIC and not yet read, keyed by destination port. rxPorts mirrors
	// the non-empty keys in sorted order; rxCount is the total queued
	// packet count across ports.
	rxq     map[uint16][]rxPacket
	rxPorts []uint16
	rxCount int
	// queuedBytes tracks queued payload bytes per port — the receive
	// window math in the kernel charges senders against it.
	queuedBytes map[uint16]uint64
	// nextSeq stamps packets in arrival order across all ports, so
	// Snoop and snapshot images preserve the global arrival sequence
	// even though storage is per-port.
	nextSeq uint64

	// peer, when set, receives transmitted packets (simple two-node
	// link, matching the paper's dedicated GigE network).
	peer *NIC
	// owner is an opaque back-pointer set by whoever drives this NIC
	// (the kernel's net stack), letting the sending side consult the
	// receiver's flow-control state without a hw→kernel dependency.
	owner any

	latencyCycles  uint64
	perByteCycles  float64
	bytesSent      uint64
	bytesReceived  uint64
	packetsDropped uint64
	// portDrops counts, per port, packets dropped because the port's
	// queue already held defaultPortLimit packets.
	portDrops map[uint16]uint64

	// recvTap, when set, observes every packet accepted into rx — the
	// record layer's view of external input arriving on the wire. Pure
	// host bookkeeping, charges nothing.
	recvTap func(Packet)
}

// rxPacket is a queued frame plus its global arrival sequence number.
type rxPacket struct {
	pkt Packet
	seq uint64
}

// Packet is one frame on the wire.
type Packet struct {
	Port    uint16 // demultiplexing key (like a UDP/TCP port)
	Payload []byte
}

// MTU is the largest payload a single packet may carry.
const MTU = 1500

// NIC timing at 3.4 GHz: ~50 µs per-packet latency (interrupt +
// protocol cost) and 1 Gbit/s serialization = 8 ns/byte ≈ 27.2
// cycles/byte.
const (
	nicLatencyCycles = 8_000
	nicPerByteCycles = 27.2
)

// defaultPortLimit bounds each port's receive queue. It matches the
// old NIC's global queue limit, so single-stream workloads see the
// same drop behavior as before the per-port split.
const defaultPortLimit = 4096

// NewNIC creates an unconnected NIC.
func NewNIC(clock *Clock) *NIC {
	return &NIC{
		clock:         clock,
		rxq:           make(map[uint16][]rxPacket),
		queuedBytes:   make(map[uint16]uint64),
		portDrops:     make(map[uint16]uint64),
		latencyCycles: nicLatencyCycles,
		perByteCycles: nicPerByteCycles,
	}
}

// Connect links two NICs as the two ends of a dedicated cable.
func Connect(a, b *NIC) {
	a.peer = b
	b.peer = a
}

// Peer returns the NIC at the other end of the cable, nil if unplugged.
func (n *NIC) Peer() *NIC { return n.peer }

// SetOwner attaches the driving stack's back-pointer; Owner reads it.
// The NIC never interprets the value.
func (n *NIC) SetOwner(o any) { n.owner = o }
func (n *NIC) Owner() any     { return n.owner }

// Send transmits a packet to the peer, charging latency + serialization
// time. Oversized payloads are rejected by the caller (the kernel's
// network stack segments to MTU). The payload is handed over, not
// copied: the peer queues it as is, so the caller must not touch it
// afterwards (the kernel builds a fresh payload for every frame).
func (n *NIC) Send(p Packet) {
	n.clock.Charge(TagNet, n.latencyCycles+uint64(float64(len(p.Payload))*n.perByteCycles))
	n.bytesSent += uint64(len(p.Payload))
	if n.peer == nil {
		n.packetsDropped++
		return
	}
	n.peer.deliver(p)
}

// deliver queues p, taking ownership of its payload.
func (n *NIC) deliver(p Packet) {
	q := n.rxq[p.Port]
	if len(q) >= defaultPortLimit {
		n.packetsDropped++
		n.portDrops[p.Port]++
		return
	}
	n.bytesReceived += uint64(len(p.Payload))
	if len(q) == 0 {
		n.insertPort(p.Port)
	}
	n.rxq[p.Port] = append(q, rxPacket{pkt: p, seq: n.nextSeq})
	n.nextSeq++
	n.rxCount++
	n.queuedBytes[p.Port] += uint64(len(p.Payload))
	if n.recvTap != nil {
		n.recvTap(p)
	}
}

// insertPort adds port to the sorted pending list (not already present).
func (n *NIC) insertPort(port uint16) {
	i := sort.Search(len(n.rxPorts), func(i int) bool { return n.rxPorts[i] >= port })
	n.rxPorts = append(n.rxPorts, 0)
	copy(n.rxPorts[i+1:], n.rxPorts[i:])
	n.rxPorts[i] = port
}

// removePort drops port from the sorted pending list.
func (n *NIC) removePort(port uint16) {
	i := sort.Search(len(n.rxPorts), func(i int) bool { return n.rxPorts[i] >= port })
	if i < len(n.rxPorts) && n.rxPorts[i] == port {
		n.rxPorts = append(n.rxPorts[:i], n.rxPorts[i+1:]...)
	}
}

// SetRecvTap installs (or, with nil, removes) the ingress observer used
// by the record layer.
func (n *NIC) SetRecvTap(fn func(Packet)) { n.recvTap = fn }

// Inject delivers a copy of a packet into the receive queue as if it
// had arrived from the wire, charging nothing — the replay layer's
// re-enactment of a recorded external arrival.
func (n *NIC) Inject(p Packet) {
	n.deliver(Packet{Port: p.Port, Payload: append([]byte(nil), p.Payload...)})
}

// Receive dequeues the next packet destined for port in arrival order.
// It reports ok=false if none is queued. O(1) amortized: a map lookup
// plus a head pop.
func (n *NIC) Receive(port uint16) (Packet, bool) {
	q := n.rxq[port]
	if len(q) == 0 {
		return Packet{}, false
	}
	head := q[0]
	if len(q) == 1 {
		delete(n.rxq, port)
		n.removePort(port)
	} else {
		n.rxq[port] = q[1:]
	}
	n.rxCount--
	n.queuedBytes[port] -= uint64(len(head.pkt.Payload))
	if n.queuedBytes[port] == 0 {
		delete(n.queuedBytes, port)
	}
	return head.pkt, true
}

// PeekPayloadLen reports the payload length of the head packet queued
// for port, or -1 if the queue is empty. The kernel's receive-window
// check uses it to decide whether the head frame fits without
// dequeuing it.
func (n *NIC) PeekPayloadLen(port uint16) int {
	q := n.rxq[port]
	if len(q) == 0 {
		return -1
	}
	return len(q[0].pkt.Payload)
}

// Pending reports how many packets are queued for port.
func (n *NIC) Pending(port uint16) int { return len(n.rxq[port]) }

// HasPending reports whether any packet is queued on any port — the
// interrupt line the kernel checks instead of scanning every socket.
func (n *NIC) HasPending() bool { return n.rxCount > 0 }

// PendingPorts returns the ports with at least one queued packet, in
// ascending order. The returned slice is a copy; callers may drain
// while iterating it.
func (n *NIC) PendingPorts() []uint16 {
	return append([]uint16(nil), n.rxPorts...)
}

// QueuedBytes reports the payload bytes currently queued for port —
// in-flight data the receiver has not yet consumed, which the sender's
// window math counts against the receive window.
func (n *NIC) QueuedBytes(port uint16) uint64 { return n.queuedBytes[port] }

// PortDrops reports how many packets addressed to port were dropped by
// the per-port queue limit.
func (n *NIC) PortDrops(port uint16) uint64 { return n.portDrops[port] }

// Stats returns cumulative byte counters.
func (n *NIC) Stats() (sent, received, dropped uint64) {
	return n.bytesSent, n.bytesReceived, n.packetsDropped
}

// Snoop returns copies of every queued packet in arrival order without
// dequeuing them — the untrusted-wire primitive used by eavesdropping
// tests.
func (n *NIC) Snoop() []Packet {
	all := make([]rxPacket, 0, n.rxCount)
	for _, port := range n.rxPorts {
		all = append(all, n.rxq[port]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Packet, len(all))
	for i, p := range all {
		out[i] = Packet{Port: p.pkt.Port, Payload: append([]byte(nil), p.pkt.Payload...)}
	}
	return out
}
