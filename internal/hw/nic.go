package hw

import (
	"cmp"
	"math/bits"
	"slices"
)

// NIC models a gigabit Ethernet interface as a pair of packet queues
// with a per-packet latency and a serialization (bandwidth) cost. The
// network experiments (thttpd, ssh transfers, the C10K harness) move
// their bytes through here, so large transfers become NIC-bound —
// reproducing the paper's "negligible reduction for large files" shape.
//
// Receive-side buffering is indexed by destination port: each port gets
// its own bounded queue in a port-indexed table, so a stack serving
// tens of thousands of connections dequeues in O(1) instead of scanning
// one shared ring. The set of ports with pending packets is a bitmap —
// the NIC's "descriptor ring" — walked in ascending port order, which
// keeps multi-port delivery deterministic.
//
// Like the disk, the wire is untrusted: the peer helper methods expose
// everything in flight, which is why ghosting applications encrypt
// network payloads.
type NIC struct {
	clock *Clock
	// rx is the per-port receive state, allocated with the first frame
	// delivered: the NICs a boot creates and never uses cost one nil
	// pointer. rxCount is the total queued packet count across ports.
	rx      *rxTable
	rxCount int
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

// rxTable is a NIC's receive state: per-port queues in pages of 256
// ports, each page allocated when one of its ports first gets a frame,
// and the set of ports with a queued frame as a bitmap with a one-bit-
// per-word summary, so insert and remove are O(1) and an ascending walk
// skips empty words 64 at a time.
type rxTable struct {
	pages [1 << 16 / rxPagePorts]*[rxPagePorts]portRx
	// pend has bit p set iff port p has a queued frame; sum has bit w
	// set iff pend[w] != 0.
	pend [1 << 16 / 64]uint64
	sum  [1 << 16 / 64 / 64]uint64
}

const rxPagePorts = 256

// portRx is one port's receive state: its queued frames from q[head]
// on, their payload bytes, and the frames the port's cap dropped.
type portRx struct {
	q     []rxPacket
	head  int
	bytes uint64
	drops uint64
}

// port returns port's state, nil if its page was never allocated.
func (n *NIC) port(port uint16) *portRx {
	if n.rx == nil {
		return nil
	}
	if pg := n.rx.pages[port/rxPagePorts]; pg != nil {
		return &pg[port%rxPagePorts]
	}
	return nil
}

// portState returns port's state, allocating the table and its page
// on first use.
func (n *NIC) portState(port uint16) *portRx {
	if n.rx == nil {
		n.rx = new(rxTable)
	}
	pg := n.rx.pages[port/rxPagePorts]
	if pg == nil {
		pg = new([rxPagePorts]portRx)
		n.rx.pages[port/rxPagePorts] = pg
	}
	return &pg[port%rxPagePorts]
}

// push appends a frame to port's queue, marking the port pending when
// the queue was empty. A full array first reuses its consumed prefix
// when that is at least half of it, so a port that is never quite
// drained does not grow its array without bound.
func (n *NIC) push(port uint16, s *portRx, e rxPacket) {
	if s.head == len(s.q) {
		w := port / 64
		n.rx.pend[w] |= 1 << (port % 64)
		n.rx.sum[w/64] |= 1 << (w % 64)
	} else if len(s.q) == cap(s.q) && 2*s.head >= len(s.q) {
		k := copy(s.q, s.q[s.head:])
		clear(s.q[k:])
		s.q, s.head = s.q[:k], 0
	}
	s.q = append(s.q, e)
	s.bytes += uint64(len(e.pkt.Payload))
	n.rxCount++
}

// deliver queues p, taking ownership of its payload.
func (n *NIC) deliver(p Packet) {
	s := n.portState(p.Port)
	if len(s.q)-s.head >= defaultPortLimit {
		n.packetsDropped++
		s.drops++
		return
	}
	n.bytesReceived += uint64(len(p.Payload))
	n.push(p.Port, s, rxPacket{pkt: p, seq: n.nextSeq})
	n.nextSeq++
}

// Receive dequeues the next packet destined for port in arrival order.
// It reports ok=false if none is queued. O(1): a table index plus a
// head pop. A drained queue releases its array and leaves the pending
// set.
func (n *NIC) Receive(port uint16) (Packet, bool) {
	s := n.port(port)
	if s == nil || s.head == len(s.q) {
		return Packet{}, false
	}
	head := s.q[s.head].pkt
	s.q[s.head] = rxPacket{}
	s.head++
	if s.head == len(s.q) {
		s.q, s.head = nil, 0
		w := port / 64
		n.rx.pend[w] &^= 1 << (port % 64)
		if n.rx.pend[w] == 0 {
			n.rx.sum[w/64] &^= 1 << (w % 64)
		}
	}
	n.rxCount--
	s.bytes -= uint64(len(head.Payload))
	return head, true
}

// PeekPayloadLen reports the payload length of the head packet queued
// for port, or -1 if the queue is empty. The kernel's receive-window
// check uses it to decide whether the head frame fits without
// dequeuing it.
func (n *NIC) PeekPayloadLen(port uint16) int {
	s := n.port(port)
	if s == nil || s.head == len(s.q) {
		return -1
	}
	return len(s.q[s.head].pkt.Payload)
}

// Pending reports how many packets are queued for port.
func (n *NIC) Pending(port uint16) int {
	if s := n.port(port); s != nil {
		return len(s.q) - s.head
	}
	return 0
}

// HasPending reports whether any packet is queued on any port — the
// interrupt line the kernel checks instead of scanning every socket.
func (n *NIC) HasPending() bool { return n.rxCount > 0 }

// NextPendingPort returns the lowest port >= from with at least one
// queued packet, and ok=false if there is none. It reads the pending
// bitmap in place, skipping empty words through the summary; ascending
// calls from the last port returned plus one walk the pending set in
// port order.
func (n *NIC) NextPendingPort(from int) (port uint16, ok bool) {
	if n.rxCount == 0 || from >= 1<<16 {
		return 0, false
	}
	w := from / 64
	if word := n.rx.pend[w] &^ (1<<(from%64) - 1); word != 0 {
		return uint16(w*64 + bits.TrailingZeros64(word)), true
	}
	for w++; w < len(n.rx.pend); w = (w/64 + 1) * 64 {
		if sw := n.rx.sum[w/64] &^ (1<<(w%64) - 1); sw != 0 {
			w = w/64*64 + bits.TrailingZeros64(sw)
			return uint16(w*64 + bits.TrailingZeros64(n.rx.pend[w])), true
		}
	}
	return 0, false
}

// QueuedBytes reports the payload bytes currently queued for port —
// in-flight data the receiver has not yet consumed, which the sender's
// window math counts against the receive window.
func (n *NIC) QueuedBytes(port uint16) uint64 {
	if s := n.port(port); s != nil {
		return s.bytes
	}
	return 0
}

// PortDrops reports how many packets addressed to port were dropped by
// the per-port queue limit.
func (n *NIC) PortDrops(port uint16) uint64 {
	if s := n.port(port); s != nil {
		return s.drops
	}
	return 0
}

// Stats returns cumulative byte counters.
func (n *NIC) Stats() (sent, received, dropped uint64) {
	return n.bytesSent, n.bytesReceived, n.packetsDropped
}

// Snoop returns copies of every queued packet in arrival order without
// dequeuing them — the untrusted-wire primitive used by eavesdropping
// tests.
func (n *NIC) Snoop() []Packet {
	all := make([]rxPacket, 0, n.rxCount)
	for port, ok := n.NextPendingPort(0); ok; port, ok = n.NextPendingPort(int(port) + 1) {
		s := n.port(port)
		all = append(all, s.q[s.head:]...)
	}
	slices.SortFunc(all, func(a, b rxPacket) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Packet, len(all))
	for i, p := range all {
		out[i] = Packet{Port: p.pkt.Port, Payload: append([]byte(nil), p.pkt.Payload...)}
	}
	return out
}
