package kernel

import (
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/hw"
)

// This file is the network stack: a small reliable, in-order,
// connection-oriented transport ("TCP-lite") over the simulated NIC.
// The two machines of a network experiment are joined by hw.Connect;
// loopback is the NIC connected to itself.
//
// The stack is event-driven (DESIGN.md §19): sockets can be switched
// non-blocking, readiness is exposed through epoll-style poll sets
// (sysPollCreate/sysPollCtl/sysPollWait, level-triggered), and every
// timeout — poll-wait, connect, per-connection idle auto-close — runs
// on a heap of timers ordered by the virtual clock (timers.go). Flow
// control is a receive-window cap on each connection's buffer: senders
// see the receiver's remaining window (the link is a lossless
// synchronous pair, so the window is read directly rather than carried
// in ACK segments) and block, shorten, or return EAGAIN; un-consumed
// frames stay queued in the NIC and are charged against the window. Delivery is interrupt-driven: Poll is an
// O(1) check of the NIC's pending line plus the armed-timer count, and
// a drain walks only the ports that actually have frames, in sorted
// port order, so multi-port handling is deterministic and snapshots
// replay it exactly.

// Wire packet types.
const (
	pktSYN byte = iota + 1
	pktSYNACK
	pktDATA
	pktFIN
	// pktRST rejects a SYN addressed to a port nobody listens on, so a
	// connect racing ahead of the server's listen fails fast with
	// ECONNREFUSED instead of hanging. Backlog-overflow drops stay
	// silent (the TCP shape: overflow relies on retry/timeout).
	pktRST
)

// header: type(1) srcPort(2) dstPort(2).
const netHdrSize = 5

// maxSegment is the data bytes per packet.
const maxSegment = hw.MTU - netHdrSize

// DefaultRecvWindow caps a connection's receive buffer (rx plus frames
// still queued in the NIC). 4 MiB is far above any single transfer an
// experiment makes, the C10K ones included, so none of them hits
// backpressure.
const DefaultRecvWindow = 4 << 20

// Ephemeral port range defaults (allocPort).
const (
	defaultPortLo = 32768
	defaultPortHi = 65535
)

// Conn is one established connection endpoint.
type Conn struct {
	local, remote uint16
	// remoteIsLocal marks loopback connections (both endpoints on this
	// host); the point-to-point link model needs only this one routing
	// bit.
	remoteIsLocal bool
	established   bool
	peerClosed    bool
	closed        bool
	// timedOut marks a connect that hit its timeout before SYNACK; the
	// socket reports POLLERR and blocking connect returns ETIMEDOUT.
	timedOut bool
	// refused marks a connect whose SYN drew an RST (no listener on the
	// destination port): POLLERR, and blocking connect returns
	// ECONNREFUSED.
	refused bool
	// rxq holds the data of delivered segments not yet read, oldest
	// first from rxHead on, and rxLen counts its bytes. The segments
	// are the NIC's payloads, kept as delivered; Recv gathers from
	// them.
	rxq    [][]byte
	rxHead int
	rxLen  int
	// rxWindow caps rxLen + bytes queued for this port in the NIC.
	rxWindow int
	// idleTimeout, when non-zero, auto-closes the connection after
	// that many cycles without receive activity (keep-alive kill). The
	// armed timer is idleTimer; it re-arms on every delivery. Timers
	// are nil when not armed.
	idleTimeout uint64
	idleTimer   *timer
	connTimer   *timer
	// sock is the socket wrapping this connection, nil until one
	// attaches; every state change that can make it ready wakes it.
	sock *Socket
}

// pushRx queues one delivered segment's data. A full queue first
// reuses its consumed prefix when that is at least half of it, so a
// reader that never quite catches up does not grow it without bound.
func (c *Conn) pushRx(data []byte) {
	if len(c.rxq) == cap(c.rxq) && 2*c.rxHead >= len(c.rxq) {
		n := copy(c.rxq, c.rxq[c.rxHead:])
		clear(c.rxq[n:])
		c.rxq, c.rxHead = c.rxq[:n], 0
	}
	c.rxq = append(c.rxq, data)
	c.rxLen += len(data)
}

// takeRx removes the first n <= rxLen buffered bytes from a non-empty
// queue. A read inside the head segment returns a view of it; one that
// spans segments gathers them into the kernel's read scratch.
func (c *Conn) takeRx(k *Kernel, n int) []byte {
	c.rxLen -= n
	if head := c.rxq[c.rxHead]; n <= len(head) {
		c.consumeHead(n)
		return head[:n]
	}
	out := k.readScratch(n)
	for got := 0; got < n; {
		m := copy(out[got:], c.rxq[c.rxHead])
		c.consumeHead(m)
		got += m
	}
	return out
}

// consumeHead drops n bytes from the head segment, popping it once
// empty; an emptied queue rewinds so its array is reused.
func (c *Conn) consumeHead(n int) {
	if n < len(c.rxq[c.rxHead]) {
		c.rxq[c.rxHead] = c.rxq[c.rxHead][n:]
		return
	}
	c.rxq[c.rxHead] = nil
	c.rxHead++
	if c.rxHead == len(c.rxq) {
		c.rxq, c.rxHead = c.rxq[:0], 0
	}
}

// backlogEntry is one pending SYN on a listener.
type backlogEntry struct {
	srcPort uint16
	local   bool // arrived via loopback
}

// Listener accepts connections on a port.
type Listener struct {
	port    uint16
	backlog []backlogEntry
	// maxBacklog caps pending SYNs; 0 = unlimited (legacy listeners).
	// Overflowing SYNs are dropped and counted — with no retransmit on
	// this link a dropped SYN is a failed connect, which is exactly
	// the admission-control behavior the C10K harness measures.
	maxBacklog int
	synDrops   uint64
	// sock is the listening socket, woken when the backlog grows.
	sock *Socket
}

// SynDrops reports how many SYNs this listener's backlog cap dropped.
func (l *Listener) SynDrops() uint64 { return l.synDrops }

// NetStats are the stack's cumulative drop/timeout counters.
type NetStats struct {
	// SynDrops: SYNs dropped by listener backlog caps.
	SynDrops uint64
	// RefusedSyns: SYNs addressed to a port nobody listens on.
	RefusedSyns uint64
	// LateDataDrops: DATA frames that arrived after their destination
	// connection was closed and removed (the FIN race the pre-refactor
	// stack dropped silently).
	LateDataDrops uint64
	// LateFinDrops: FINs that arrived after the local close.
	LateFinDrops uint64
	// TimeoutKills: connections auto-closed by the idle timeout.
	TimeoutKills uint64
	// TimerFires: timers fired.
	TimerFires uint64
}

// portTable maps a port to a *T: pages of 256 ports, each allocated
// when one of its ports is first set, plus a count of the ports set.
// A lookup is two indexes; a stack that never opens a port allocates
// nothing.
type portTable[T any] struct {
	pages []*[256]*T
	n     int
}

// get returns the entry at port, nil if none.
func (t *portTable[T]) get(port uint16) *T {
	if int(port/256) < len(t.pages) {
		if pg := t.pages[port/256]; pg != nil {
			return pg[port%256]
		}
	}
	return nil
}

// set makes v (non-nil) the entry at port.
func (t *portTable[T]) set(port uint16, v *T) {
	if t.pages == nil {
		t.pages = make([]*[256]*T, 256)
	}
	pg := t.pages[port/256]
	if pg == nil {
		pg = new([256]*T)
		t.pages[port/256] = pg
	}
	if pg[port%256] == nil {
		t.n++
	}
	pg[port%256] = v
}

// del removes the entry at port, if any.
func (t *portTable[T]) del(port uint16) {
	if int(port/256) < len(t.pages) {
		if pg := t.pages[port/256]; pg != nil && pg[port%256] != nil {
			pg[port%256] = nil
			t.n--
		}
	}
}

// NetStack is one kernel's transport state.
type NetStack struct {
	k         *Kernel
	nic       *hw.NIC
	listeners portTable[Listener]
	conns     portTable[Conn] // keyed by local port
	// pollPorts is Poll's snapshot of the NIC's pending ports, reused
	// across calls.
	pollPorts []uint16
	nextPort  uint16
	portLo    uint16
	portHi    uint16
	// defWindow is the receive window installed on new connections.
	defWindow int
	timers    *timerQueue
	stats     NetStats
}

// NewNetStack initializes the stack.
func NewNetStack(k *Kernel) *NetStack {
	ns := &NetStack{
		k:         k,
		nic:       k.M.NIC,
		nextPort:  defaultPortLo,
		portLo:    defaultPortLo,
		portHi:    defaultPortHi,
		defWindow: DefaultRecvWindow,
		timers:    newTimerQueue(),
	}
	// The NIC's owner back-pointer lets the peer stack's senders read
	// this stack's flow-control state (window math) without a
	// hw→kernel dependency.
	ns.nic.SetOwner(ns)
	return ns
}

// Stats returns the cumulative counters.
func (ns *NetStack) Stats() NetStats { return ns.stats }

// NumConns reports currently-open connections (load tracking).
func (ns *NetStack) NumConns() int { return ns.conns.n }

// TimersPending reports armed timers (quiescence checks).
func (ns *NetStack) TimersPending() int { return ns.timers.pendingCount() }

// SetRecvWindow changes the receive window installed on connections
// created after the call. Only tests call it, to drive flow control
// under a small window.
func (ns *NetStack) SetRecvWindow(n int) {
	if n > 0 {
		ns.defWindow = n
	}
}

// SetEphemeralRange restricts allocPort to [lo, hi] (port-exhaustion
// tests use a tiny range).
func (ns *NetStack) SetEphemeralRange(lo, hi uint16) {
	if lo == 0 || hi < lo {
		return
	}
	ns.portLo, ns.portHi, ns.nextPort = lo, hi, lo
}

// allocPort hands out the next free ephemeral port, scanning the range
// at most once: an exhausted range returns EAGAIN instead of spinning
// forever (ports free on connection close, so churn reuses them).
func (ns *NetStack) allocPort() (uint16, uint64) {
	span := int(ns.portHi) - int(ns.portLo) + 1
	for i := 0; i < span; i++ {
		p := ns.nextPort
		ns.nextPort++
		if ns.nextPort < ns.portLo || ns.nextPort > ns.portHi || ns.nextPort == 0 {
			ns.nextPort = ns.portLo
		}
		if ns.conns.get(p) != nil || ns.listeners.get(p) != nil {
			continue
		}
		return p, 0
	}
	return 0, EAGAIN
}

// send routes one frame: via the loopback interface when the
// destination endpoint is on this host, via the NIC otherwise.
func (ns *NetStack) send(typ byte, src, dst uint16, data []byte, toLocal bool) {
	ns.k.HAL.KAccess(workNetPerPacket)
	pl := make([]byte, netHdrSize+len(data))
	pl[0] = typ
	pl[1], pl[2] = byte(src), byte(src>>8)
	pl[3], pl[4] = byte(dst), byte(dst>>8)
	copy(pl[netHdrSize:], data)
	if toLocal {
		ns.k.M.Clock.Charge(hw.TagNet, loopbackCycles)
		ns.handlePacket(dst, pl, true)
		return
	}
	ns.nic.Send(hw.Packet{Port: dst, Payload: pl})
}

// loopbackCycles is the lo-interface per-packet cost.
const loopbackCycles = 2000

// peerStack resolves the stack owning the other end of c: this stack
// for loopback, the linked machine's for wire connections. nil when
// the cable is unplugged.
func (ns *NetStack) peerStack(c *Conn) *NetStack {
	if c.remoteIsLocal {
		return ns
	}
	if p := ns.nic.Peer(); p != nil {
		if o, ok := p.Owner().(*NetStack); ok {
			return o
		}
	}
	return nil
}

// sendRoom computes how many data bytes the receiver's window still
// accepts: its window minus buffered bytes minus frames in flight in
// its NIC queue (headers count conservatively against the window).
// A missing peer connection returns maxSegment — the frame is sent and
// the receiver's late-drop accounting takes it.
func (ns *NetStack) sendRoom(c *Conn) int {
	ps := ns.peerStack(c)
	if ps == nil {
		return maxSegment
	}
	rc := ps.conns.get(c.remote)
	if rc == nil || rc.remote != c.local {
		return maxSegment
	}
	room := rc.rxWindow - rc.rxLen
	if !c.remoteIsLocal {
		room -= int(ps.nic.QueuedBytes(c.remote))
	}
	return room
}

// wakeSenders wakes every connection whose sendRoom reads rc — the
// sender at the other end, on this stack for loopback or on the linked
// one — after rc's window opened: a read, a drained frame, or rc's
// removal.
func (ns *NetStack) wakeSenders(rc *Conn) {
	if sc := ns.conns.get(rc.remote); sc != nil && sc.remoteIsLocal {
		sc.sock.wake()
	}
	if p := ns.nic.Peer(); p != nil {
		if ps, ok := p.Owner().(*NetStack); ok {
			if sc := ps.conns.get(rc.remote); sc != nil && !sc.remoteIsLocal {
				sc.sock.wake()
			}
		}
	}
}

// dropConn releases c's local port. A sender that read c's window now
// sees none, so it is woken.
func (ns *NetStack) dropConn(c *Conn) {
	ns.conns.del(c.local)
	ns.wakeSenders(c)
}

// Poll is the receive-interrupt stand-in the schedulers call between
// dispatches. It is O(1) when nothing is pending: one flag check on
// the NIC plus the armed-timer count. With work it fires due timers
// and drains pending ports in ascending port order. The drain walks a
// snapshot of the pending set taken before it starts: a NIC connected
// to itself receives frames while its ports drain, and a port that
// only turned pending then waits for the next Poll.
func (ns *NetStack) Poll() {
	if ns.nic.HasPending() {
		ports := ns.pollPorts[:0]
		for port, ok := ns.nic.NextPendingPort(0); ok; port, ok = ns.nic.NextPendingPort(int(port) + 1) {
			ports = append(ports, port)
		}
		ns.pollPorts = ports
		for _, port := range ports {
			ns.drainPort(port)
		}
	}
	if ns.timers.pendingCount() > 0 {
		if n := ns.timers.advance(ns.k.M.Clock.Cycles()); n > 0 {
			ns.stats.TimerFires += uint64(n)
			ns.k.HAL.KAccess(n * workTimerFire)
		}
	}
}

// drainPort delivers queued frames for one port until the queue is
// empty or the head frame no longer fits the connection's receive
// window (head-of-line block — in-order delivery means a FIN queued
// behind over-window data waits with it, and the un-consumed bytes
// keep charging the sender's view of the window).
func (ns *NetStack) drainPort(port uint16) {
	for {
		c := ns.conns.get(port)
		hasConn := c != nil
		if hasConn {
			if n := ns.nic.PeekPayloadLen(port); n > netHdrSize && c.rxLen+(n-netHdrSize) > c.rxWindow {
				return
			}
		}
		pkt, ok := ns.nic.Receive(port)
		if !ok {
			return
		}
		if hasConn {
			ns.wakeSenders(c) // the frame left c's NIC queue
		}
		// Late frames — addressed to a port with neither a connection
		// nor a listener — are drained and counted but not charged: the
		// pre-refactor stack never processed them at all (they rotted in
		// the NIC queue), and the legacy experiments' calibrated cycle
		// totals must not move because teardown races are now accounted.
		if hasConn || ns.listeners.get(port) != nil {
			ns.k.HAL.KAccess(workNetPerPacket)
		}
		ns.handlePacket(port, pkt.Payload, false)
	}
}

// deliverable reports whether any pending frame could be delivered
// right now (ports without a window-blocked head). The idle-skip
// protocol uses it: window-blocked frames alone must not hold virtual
// time back.
func (ns *NetStack) deliverable() bool {
	if !ns.nic.HasPending() {
		return false
	}
	for port, ok := ns.nic.NextPendingPort(0); ok; port, ok = ns.nic.NextPendingPort(int(port) + 1) {
		c := ns.conns.get(port)
		if c == nil {
			return true // listener, or a late frame a drain will drop
		}
		if n := ns.nic.PeekPayloadLen(port); n <= netHdrSize || c.rxLen+(n-netHdrSize) <= c.rxWindow {
			return true
		}
	}
	return false
}

// timerNext exposes the earliest armed expiry to the idle protocol.
func (ns *NetStack) timerNext() (uint64, bool) { return ns.timers.nextExpiry() }

// handlePacket is protocol input processing for one frame addressed to
// port (from the wire or the loopback path).
func (ns *NetStack) handlePacket(port uint16, pl []byte, fromLocal bool) {
	if len(pl) < netHdrSize {
		return
	}
	typ := pl[0]
	src := uint16(pl[1]) | uint16(pl[2])<<8
	data := pl[netHdrSize:]
	switch typ {
	case pktSYN:
		l := ns.listeners.get(port)
		if l == nil {
			ns.stats.RefusedSyns++
			ns.send(pktRST, port, src, nil, fromLocal)
			return
		}
		if l.maxBacklog > 0 && len(l.backlog) >= l.maxBacklog {
			l.synDrops++
			ns.stats.SynDrops++
			return
		}
		l.backlog = append(l.backlog, backlogEntry{srcPort: src, local: fromLocal})
		l.sock.wake()
	case pktSYNACK:
		if c := ns.conns.get(port); c != nil {
			c.established = true
			c.remote = src
			ns.timers.cancel(c.connTimer)
			c.connTimer = nil
			c.sock.wake()
		}
	case pktRST:
		if c := ns.conns.get(port); c != nil && !c.established && !c.closed {
			c.refused = true
			ns.timers.cancel(c.connTimer)
			c.connTimer = nil
			c.sock.wake()
		}
	case pktDATA:
		c := ns.conns.get(port)
		if c == nil {
			// The FIN race: data in flight when the local side closed
			// and released the port. Dropped — but accounted, not
			// silent.
			ns.stats.LateDataDrops++
			return
		}
		if len(data) > 0 {
			c.pushRx(data)
		}
		c.sock.wake()
		ns.touch(c)
	case pktFIN:
		c := ns.conns.get(port)
		if c == nil {
			ns.stats.LateFinDrops++
			return
		}
		c.peerClosed = true
		c.sock.wake()
		ns.touch(c)
	}
}

// touch re-arms c's idle auto-close timer on receive activity.
func (ns *NetStack) touch(c *Conn) {
	if c.idleTimeout == 0 || c.closed {
		return
	}
	ns.timers.cancel(c.idleTimer)
	c.idleTimer = ns.timers.after(ns.k.M.Clock.Cycles(), c.idleTimeout, ns.idleKill(c))
}

// idleKill returns the timer handler that force-closes an idle
// connection (slowloris defense: a held-open connection with no
// traffic is reaped without any process attending to it).
func (ns *NetStack) idleKill(c *Conn) func() {
	return func() {
		c.idleTimer = nil
		if c.closed {
			return
		}
		ns.stats.TimeoutKills++
		ns.CloseConn(c)
	}
}

// SetIdleTimeout arms (or with 0 disables) the connection's receive
// idle auto-close.
func (ns *NetStack) SetIdleTimeout(c *Conn, cycles uint64) {
	c.idleTimeout = cycles
	ns.timers.cancel(c.idleTimer)
	c.idleTimer = nil
	if cycles != 0 && !c.closed {
		c.idleTimer = ns.timers.after(ns.k.M.Clock.Cycles(), cycles, ns.idleKill(c))
	}
}

// Connect dials a port. Blocking mode waits until established, refused
// by an RST (→ ECONNREFUSED), or the optional timeout expires (→
// ETIMEDOUT); nonblocking mode sends the SYN and returns immediately —
// completion surfaces as POLLOUT, refusal or timeout as POLLERR. The
// errno result is 0 on success.
func (ns *NetStack) Connect(p *Proc, dst uint16, toPeer bool, nonblock bool, timeout uint64) (*Conn, uint64) {
	local, e := ns.allocPort()
	if e != 0 {
		return nil, e
	}
	c := &Conn{local: local, remote: dst, remoteIsLocal: !toPeer, rxWindow: ns.defWindow}
	ns.conns.set(local, c)
	if timeout != 0 {
		c.connTimer = ns.timers.after(ns.k.M.Clock.Cycles(), timeout, func() {
			c.connTimer = nil
			if !c.established && !c.closed {
				c.timedOut = true
				c.sock.wake()
			}
		})
	}
	ns.send(pktSYN, local, dst, nil, !toPeer)
	if nonblock {
		return c, 0
	}
	p.block(func() bool { ns.Poll(); return c.established || c.timedOut || c.refused })
	if c.refused {
		ns.dropConn(c)
		return nil, ECONNREFUSED
	}
	if c.timedOut {
		ns.dropConn(c)
		return nil, ETIMEDOUT
	}
	return c, 0
}

// Accept takes one pending connection off a listener, blocking until
// one arrives. The errno result is 0 on success (EAGAIN: nonblocking
// with an empty backlog, or ephemeral ports exhausted).
func (ns *NetStack) Accept(p *Proc, l *Listener, nonblock bool) (*Conn, uint64) {
	if nonblock && len(l.backlog) == 0 {
		ns.Poll()
		if len(l.backlog) == 0 {
			return nil, EAGAIN
		}
	}
	p.block(func() bool { ns.Poll(); return len(l.backlog) > 0 })
	e := l.backlog[0]
	l.backlog = l.backlog[1:]
	local, errn := ns.allocPort()
	if errn != 0 {
		return nil, errn
	}
	c := &Conn{local: local, remote: e.srcPort, remoteIsLocal: e.local, established: true, rxWindow: ns.defWindow}
	ns.conns.set(local, c)
	ns.send(pktSYNACK, local, e.srcPort, nil, e.local)
	return c, 0
}

// Send writes data to the connection, segmenting to the MTU and the
// receiver's window. Blocking mode waits for window; nonblocking mode
// returns a short count (or EAGAIN when nothing fit). The int result
// is bytes sent; the errno result is 0, EAGAIN, or EPIPE.
func (ns *NetStack) Send(p *Proc, c *Conn, data []byte, nonblock bool) (int, uint64) {
	sent := 0
	for sent < len(data) {
		if c.closed || c.peerClosed {
			if sent > 0 {
				return sent, 0
			}
			return 0, EPIPE
		}
		room := ns.sendRoom(c)
		if room <= 0 {
			if nonblock {
				if sent > 0 {
					return sent, 0
				}
				return 0, EAGAIN
			}
			p.block(func() bool {
				ns.Poll()
				return ns.sendRoom(c) > 0 || c.peerClosed || c.closed
			})
			continue
		}
		chunk := len(data) - sent
		if chunk > maxSegment {
			chunk = maxSegment
		}
		if chunk > room {
			chunk = room
		}
		ns.send(pktDATA, c.local, c.remote, data[sent:sent+chunk], c.remoteIsLocal)
		sent += chunk
	}
	return sent, 0
}

// Recv returns buffered data, blocking until some arrives or the peer
// closes (then 0 = EOF). Buffered data is always drained before EOF is
// reported, even after the peer's FIN. Nonblocking mode returns EAGAIN
// instead of blocking.
//
// The result is a view (a received segment or the kernel's read
// scratch) valid until the next read on this kernel.
func (ns *NetStack) Recv(p *Proc, c *Conn, max int, nonblock bool) ([]byte, uint64) {
	if c.rxLen == 0 && nonblock {
		ns.Poll()
		if c.rxLen == 0 && !c.peerClosed && !c.closed {
			return nil, EAGAIN
		}
	}
	if !nonblock {
		p.block(func() bool { ns.Poll(); return c.rxLen > 0 || c.peerClosed || c.closed })
	}
	if c.rxLen == 0 {
		return nil, 0 // EOF
	}
	out := c.takeRx(ns.k, min(c.rxLen, max))
	ns.wakeSenders(c)
	return out, 0
}

// CloseConn sends FIN, cancels the connection's timers, and releases
// the local port. Idempotent.
func (ns *NetStack) CloseConn(c *Conn) {
	if c.closed {
		return
	}
	c.closed = true
	ns.timers.cancel(c.idleTimer)
	c.idleTimer = nil
	ns.timers.cancel(c.connTimer)
	c.connTimer = nil
	ns.send(pktFIN, c.local, c.remote, nil, c.remoteIsLocal)
	ns.dropConn(c)
	c.sock.wake()
}

// --- socket file objects & syscalls ---------------------------------------

// Socket is the descriptor-level object for the socket syscalls.
type Socket struct {
	ns       *NetStack
	conn     *Conn
	listener *Listener
	// nonblock switches every operation to the EAGAIN discipline.
	nonblock bool
	// timeo is the pending timeout setting (SysSockTimeo before
	// connect = connect timeout; on a connected socket it becomes the
	// idle auto-close timeout directly).
	timeo uint64
	// watchers are the (poll set, member fd) pairs that name this
	// socket in their owner's table.
	watchers []pollWatch
}

// pollWatch is one poll set membership naming a socket.
type pollWatch struct {
	ps *PollSet
	fd int
}

// wake marks the socket as a candidate in every poll set that names
// it. Nil-safe: a connection without a socket has no one to wake.
func (s *Socket) wake() {
	if s == nil {
		return
	}
	for _, w := range s.watchers {
		w.ps.mark(w.fd)
	}
}

func (s *Socket) Read(p *Proc, n int, off int64) ([]byte, error) {
	if s.conn == nil {
		return nil, ErrNotReadable
	}
	data, e := s.ns.Recv(p, s.conn, n, s.nonblock)
	if e != 0 {
		return nil, errnoError{e, "recv would block"}
	}
	return data, nil
}

func (s *Socket) WriteAt(p *Proc, b []byte, off int64) (int, error) {
	if s.conn == nil {
		return 0, ErrNotWritable
	}
	if s.conn.peerClosed || s.conn.closed {
		return 0, ErrPipeBroken
	}
	n, e := s.ns.Send(p, s.conn, b, s.nonblock)
	switch e {
	case 0:
		return n, nil
	case EPIPE:
		return n, ErrPipeBroken
	default:
		return n, errnoError{e, "send would block"}
	}
}

func (s *Socket) Size() int64 { return 0 }

func (s *Socket) Ready() bool {
	if s.listener != nil {
		s.ns.Poll()
		return len(s.listener.backlog) > 0
	}
	if s.conn != nil {
		s.ns.Poll()
		return s.conn.rxLen > 0 || s.conn.peerClosed || s.conn.closed
	}
	return false
}

func (s *Socket) Close(k *Kernel) error {
	if s.conn != nil {
		s.ns.CloseConn(s.conn)
	}
	if s.listener != nil {
		s.ns.listeners.del(s.listener.port)
	}
	return nil
}

// sysSocket creates an unbound socket.
func sysSocket(k *Kernel, p *Proc, ic core.IContext) uint64 {
	k.HAL.KAccess(workSocket)
	fd, e := p.allocFD(&Socket{ns: k.Net}, false)
	if e != 0 {
		return errno(e)
	}
	return uint64(fd)
}

func sockOf(p *Proc, fd int) (*Socket, uint64) {
	d, e := p.fd(fd)
	if e != 0 {
		return nil, e
	}
	s, ok := d.Ops.(*Socket)
	if !ok {
		return nil, EINVAL
	}
	return s, 0
}

// sysBind binds a socket to a local port.
func sysBind(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workSocket)
	port := uint16(ic.Arg(1))
	if k.Net.listeners.get(port) != nil {
		return errno(EEXIST)
	}
	s.listener = &Listener{port: port, sock: s}
	return 0
}

// sysListen registers the bound port for incoming SYNs. arg1 is the
// backlog cap (0 = unlimited, the legacy behavior): SYNs beyond it are
// dropped and counted, never queued.
func sysListen(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	if s.listener == nil {
		return errno(EINVAL)
	}
	k.HAL.KAccess(workSocket)
	s.listener.maxBacklog = int(ic.Arg(1))
	k.Net.listeners.set(s.listener.port, s.listener)
	return 0
}

// sysAccept blocks for a connection and returns a new socket fd. On a
// nonblocking listener it returns EAGAIN instead of blocking. The
// accepted socket inherits the listener socket's nonblocking mode and
// timeout setting (as its idle auto-close).
func sysAccept(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	if s.listener == nil {
		return errno(EINVAL)
	}
	conn, e := k.Net.Accept(p, s.listener, s.nonblock)
	if e != 0 {
		return errno(e)
	}
	ns := &Socket{ns: k.Net, conn: conn, nonblock: s.nonblock}
	conn.sock = ns
	if s.timeo != 0 {
		k.Net.SetIdleTimeout(conn, s.timeo)
	}
	fd, e := p.allocFD(ns, false)
	if e != 0 {
		k.Net.CloseConn(conn)
		return errno(e)
	}
	return uint64(fd)
}

// sysConnect dials arg1 as a destination port, blocking until
// established. arg2 selects the host: RemoteHost for the machine on
// the other end of the link, LocalHost (0) for a loopback service. A
// nonblocking socket returns immediately after the SYN; completion is
// POLLOUT, a timeout (SysSockTimeo armed before connect) POLLERR.
func sysConnect(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workSocket)
	conn, e := k.Net.Connect(p, uint16(ic.Arg(1)), ic.Arg(2) == RemoteHost, s.nonblock, s.timeo)
	if e != 0 {
		return errno(e)
	}
	s.conn = conn
	conn.sock = s
	s.wake() // the socket now reports conn's state
	return 0
}

// Host selectors for the connect syscall's third argument.
const (
	// LocalHost addresses a service on this machine (loopback).
	LocalHost = 0
	// RemoteHost addresses the machine at the other end of the link.
	RemoteHost = 1
)

// sysSendTo sends on a connected socket (same path as write).
func sysSendTo(k *Kernel, p *Proc, ic core.IContext) uint64 {
	return sysWrite(k, p, ic)
}

// sysRecv receives from a connected socket (same path as read).
func sysRecv(k *Kernel, p *Proc, ic core.IContext) uint64 {
	return sysRead(k, p, ic)
}

// sysNonblock switches a socket's blocking discipline: arg1 non-zero
// sets nonblocking (EAGAIN instead of blocking on accept, connect,
// read, and write).
func sysNonblock(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollCtl)
	s.nonblock = ic.Arg(1) != 0
	return 0
}

// sysSockTimeo sets the socket's timeout in cycles (0 clears). On a
// connected socket it arms the receive-idle auto-close (keep-alive
// kill); on an unconnected one it is stored and used as the connect
// timeout, and inherited by accepted connections as their idle
// timeout.
func sysSockTimeo(k *Kernel, p *Proc, ic core.IContext) uint64 {
	s, e := sockOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollCtl)
	s.timeo = ic.Arg(1)
	if s.conn != nil {
		k.Net.SetIdleTimeout(s.conn, s.timeo)
	}
	return 0
}

// --- poll sets (epoll-style readiness) ------------------------------------

// Poll event bits (sysPollCtl interest mask and sysPollWait results).
const (
	POLLIN  = 1 // accept would succeed / data buffered / EOF readable
	POLLOUT = 2 // established and window open
	POLLHUP = 4 // peer closed or locally closed
	POLLERR = 8 // connect timed out, or the member fd is dead
)

// Poll-set control ops (sysPollCtl arg1).
const (
	PollCtlAdd = 1
	PollCtlMod = 2
	PollCtlDel = 3
)

// PollSet is the kernel object behind sysPollCreate: a set of member
// socket fds with per-fd interest masks. Readiness is level-triggered
// and computed from connection state at wait time. A candidate bitmap
// keeps the host cost of a wait proportional to what changed rather
// than to the member count; the virtual charge is O(ready) either way.
type PollSet struct {
	ns *NetStack
	// interest is indexed by member fd: the event mask in the low 32
	// bits and pollMember, because an interest of 0 is a legal member.
	// It grows only by an add that sockOf accepted, so no number a
	// caller makes up sizes it. Membership is by number in the owner's
	// table, resolved at wait time: a closed member reports POLLERR, a
	// reused number reports whatever it names now.
	interest []uint64
	// cand is the candidate bitmap over member fds. Invariant: every
	// member whose readiness is non-zero has its bit set; extra bits
	// are allowed. Bits are set by interest edits (sysPollCtl), by
	// state changes of a socket that names this set in its watchers,
	// and by changes of the owner's table at a member fd (retarget). A
	// walk clears the bit of each candidate it finds not ready.
	cand []uint64
	// owner is the creating process: member fds index its table. A
	// poll set is private to its creator (not meaningfully inherited
	// across fork).
	owner *Proc
}

func (ps *PollSet) Read(p *Proc, n int, off int64) ([]byte, error)    { return nil, ErrNotReadable }
func (ps *PollSet) WriteAt(p *Proc, b []byte, off int64) (int, error) { return 0, ErrNotWritable }
func (ps *PollSet) Size() int64                                       { return 0 }

// Ready reports whether any member is ready (select-on-pollset).
func (ps *PollSet) Ready() bool {
	ps.ns.Poll()
	_, _, ok := ps.next(0)
	return ok
}

// Close drops the set from its owner's list and its memberships from
// the sockets that carry them.
func (ps *PollSet) Close(k *Kernel) error {
	o := ps.owner
	o.pollSets = slices.DeleteFunc(o.pollSets, func(x *PollSet) bool { return x == ps })
	for fd, iv := range ps.interest {
		if iv&pollMember == 0 {
			continue
		}
		if s, e := sockOf(o, fd); e == 0 {
			s.unwatch(ps, fd)
		}
	}
	return nil
}

// pollMember marks a member's entry in PollSet.interest.
const pollMember = 1 << 32

// member returns fd's interest mask and whether fd is a member; any
// number, negative or past the slice, is simply not one.
func (ps *PollSet) member(fd int) (uint32, bool) {
	if fd < 0 || fd >= len(ps.interest) {
		return 0, false
	}
	iv := ps.interest[fd]
	return uint32(iv), iv&pollMember != 0
}

// setInterest makes fd a member with the given mask, growing the
// slice to reach it. Callers pass an fd sockOf accepted.
func (ps *PollSet) setInterest(fd int, events uint32) {
	if fd >= len(ps.interest) {
		ps.interest = append(ps.interest, make([]uint64, fd+1-len(ps.interest))...)
	}
	ps.interest[fd] = pollMember | uint64(events)
}

// mark sets fd's candidate bit.
func (ps *PollSet) mark(fd int) {
	w := fd / 64
	if w >= len(ps.cand) {
		ps.cand = append(ps.cand, make([]uint64, w+1-len(ps.cand))...)
	}
	ps.cand[w] |= 1 << (fd % 64)
}

// next returns the lowest candidate fd >= from whose readiness is
// non-zero, clearing the bit of every candidate it passes that is not
// ready. By the cand invariant, repeated calls visit exactly the ready
// members a scan of every member in fd order would.
func (ps *PollSet) next(from int) (fd int, ev uint32, ok bool) {
	for w := from / 64; w < len(ps.cand); w++ {
		word := ps.cand[w]
		if w == from/64 {
			word &^= 1<<(from%64) - 1
		}
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			fd := w*64 + b
			if ev := ps.readiness(fd); ev != 0 {
				return fd, ev, true
			}
			ps.cand[w] &^= 1 << b
		}
	}
	return 0, 0, false
}

// collect returns up to maxev ready members, in ascending fd order,
// as the (fd uint32, events uint32) pairs sysPollWait copies out.
func (ps *PollSet) collect(maxev int) []byte {
	var out []byte
	for fd, ev, ok := ps.next(0); ok; fd, ev, ok = ps.next(fd + 1) {
		out = append(out,
			byte(fd), byte(fd>>8), byte(fd>>16), byte(fd>>24),
			byte(ev), byte(ev>>8), byte(ev>>16), byte(ev>>24))
		if len(out)/8 == maxev {
			break
		}
	}
	return out
}

// retarget follows a change of the owner's slot n from old to cur
// (either may be nil). A member there must be rechecked, and the
// membership moves to the socket the number now names.
func (ps *PollSet) retarget(n int, old, cur FileOps) {
	if _, member := ps.member(n); !member {
		return
	}
	ps.mark(n)
	if s, ok := old.(*Socket); ok {
		s.unwatch(ps, n)
	}
	if s, ok := cur.(*Socket); ok {
		s.watchers = append(s.watchers, pollWatch{ps, n})
	}
}

// unwatch removes the membership (ps, fd) from s.
func (s *Socket) unwatch(ps *PollSet, fd int) {
	s.watchers = slices.DeleteFunc(s.watchers, func(w pollWatch) bool { return w.ps == ps && w.fd == fd })
}

// readiness computes member fd's level-triggered event set, masked by
// its interest (POLLHUP and POLLERR always report); 0 for a
// non-member. POLLOUT, and the send-window lookup behind it, is
// computed only when the interest asks for it.
func (ps *PollSet) readiness(fd int) uint32 {
	interest, member := ps.member(fd)
	if !member {
		return 0
	}
	d, e := ps.owner.fd(fd)
	if e != 0 {
		return POLLERR
	}
	s, ok := d.Ops.(*Socket)
	if !ok {
		return POLLERR
	}
	var ev uint32
	if s.listener != nil {
		if len(s.listener.backlog) > 0 {
			ev |= POLLIN
		}
	} else if c := s.conn; c != nil {
		if c.timedOut || c.refused {
			ev |= POLLERR
		}
		if c.rxLen > 0 || c.peerClosed || c.closed {
			ev |= POLLIN
		}
		if c.peerClosed || c.closed {
			ev |= POLLHUP
		}
		if interest&POLLOUT != 0 && c.established && !c.peerClosed && !c.closed && ps.ns.sendRoom(c) > 0 {
			ev |= POLLOUT
		}
	}
	return ev & (interest | POLLHUP | POLLERR)
}

// sysPollCreate allocates an empty poll set and returns its fd.
func sysPollCreate(k *Kernel, p *Proc, ic core.IContext) uint64 {
	k.HAL.KAccess(workPollCreate)
	ps := &PollSet{ns: k.Net, owner: p}
	fd, e := p.allocFD(ps, false)
	if e != 0 {
		return errno(e)
	}
	p.pollSets = append(p.pollSets, ps)
	return uint64(fd)
}

func pollSetOf(p *Proc, fd int) (*PollSet, uint64) {
	d, e := p.fd(fd)
	if e != 0 {
		return nil, e
	}
	ps, ok := d.Ops.(*PollSet)
	if !ok {
		return nil, EINVAL
	}
	return ps, 0
}

// sysPollCtl edits a poll set: arg0 poll fd, arg1 op (add/mod/del),
// arg2 member socket fd, arg3 interest mask. Errnos follow epoll:
// EEXIST on duplicate add, ENOENT on mod/del of a non-member. Member
// numbers name sockets in the poll set's owner's table.
func sysPollCtl(k *Kernel, p *Proc, ic core.IContext) uint64 {
	ps, e := pollSetOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollCtl)
	op := int(ic.Arg(1))
	fd := int(ic.Arg(2))
	events := uint32(ic.Arg(3))
	s, se := sockOf(ps.owner, fd)
	if se != 0 && op != PollCtlDel {
		return errno(se)
	}
	_, member := ps.member(fd)
	switch op {
	case PollCtlAdd:
		if member {
			return errno(EEXIST)
		}
		ps.setInterest(fd, events)
		s.watchers = append(s.watchers, pollWatch{ps, fd})
		ps.mark(fd)
	case PollCtlMod:
		if !member {
			return errno(ENOENT)
		}
		ps.setInterest(fd, events)
		ps.mark(fd)
	case PollCtlDel:
		if !member {
			return errno(ENOENT)
		}
		ps.interest[fd] = 0
		if se == 0 {
			s.unwatch(ps, fd)
		}
	default:
		return errno(EINVAL)
	}
	return 0
}

// sysPollWait collects ready members: arg0 poll fd, arg1 user buffer
// receiving (fd uint32, events uint32) pairs, arg2 its capacity in
// events, arg3 timeout in cycles (0 = wait forever). Returns the event
// count, 0 on timeout. Level-triggered: members still ready on the
// next call report again. Results are written in ascending fd order.
// The charge is workPollWaitBase + workPollPerEvent per reported event
// — O(ready), not O(members), the epoll cost shape; the candidate
// walk (PollSet.next) makes the host cost follow it.
func sysPollWait(k *Kernel, p *Proc, ic core.IContext) uint64 {
	ps, e := pollSetOf(p, int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	k.HAL.KAccess(workPollWaitBase)
	buf := ic.Arg(1)
	maxev := int(ic.Arg(2))
	timeout := ic.Arg(3)
	if maxev <= 0 {
		return errno(EINVAL)
	}
	k.Net.Poll()
	out := ps.collect(maxev)
	if len(out) == 0 {
		expired := false
		var tid *timer
		if timeout != 0 {
			tid = k.Net.timers.after(k.M.Clock.Cycles(), timeout, func() { expired = true })
		}
		p.block(func() bool {
			k.Net.Poll()
			if expired {
				return true
			}
			_, _, ok := ps.next(0)
			return ok
		})
		if !expired {
			k.Net.timers.cancel(tid)
		}
		out = ps.collect(maxev)
		if len(out) == 0 {
			return 0 // timeout
		}
	}
	n := len(out) / 8
	k.HAL.KAccess(n * workPollPerEvent)
	if err := k.copyout(p, hw.Virt(buf), out); err != nil {
		return errno(EFAULT)
	}
	return uint64(n)
}
