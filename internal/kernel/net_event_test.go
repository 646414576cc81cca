package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/hw"
)

// mkFrame builds a raw wire frame (white-box: same layout as send).
func mkFrame(typ byte, src, dst uint16, data []byte) []byte {
	pl := make([]byte, netHdrSize+len(data))
	pl[0] = typ
	pl[1], pl[2] = byte(src), byte(src>>8)
	pl[3], pl[4] = byte(dst), byte(dst>>8)
	copy(pl[netHdrSize:], data)
	return pl
}

// TestPollDrainsPortsInSortedOrder pins the cross-port drain order:
// frames injected for ports 7002, 7000, 7001 must be delivered in
// ascending port order, not injection or map-iteration order. The
// witness is the idle-timer re-arm each delivery performs — timers
// carry a monotonic arm sequence number, so delivery order is readable
// from the conns' timer seqs after one Poll.
func TestPollDrainsPortsInSortedOrder(t *testing.T) {
	server, client, _ := bootPair(t)
	ports := []uint16{7000, 7001, 7002}
	for _, port := range ports {
		c := &Conn{local: port, remote: 9999, established: true, rxWindow: 1 << 20, idleTimeout: 1 << 30}
		server.Net.conns.set(port, c)
	}
	for _, port := range []uint16{7002, 7000, 7001} {
		client.M.NIC.Send(hw.Packet{Port: port, Payload: mkFrame(pktDATA, 9999, port, []byte{'x'})})
	}
	server.Net.Poll()
	var seqs []uint64
	for _, port := range ports {
		c := server.Net.conns.get(port)
		if got := c.takeRx(server, c.rxLen); string(got) != "x" {
			t.Fatalf("port %d rx = %q", port, got)
		}
		seqs = append(seqs, c.idleTimer.seq)
	}
	if !(seqs[0] < seqs[1] && seqs[1] < seqs[2]) {
		t.Errorf("drain order not ascending by port: timer seqs %v", seqs)
	}
}

// TestPortExhaustionEAGAIN (the allocPort fix): a drained ephemeral
// range returns EAGAIN instead of spinning forever, and closing a
// connection makes its port reusable.
func TestPortExhaustionEAGAIN(t *testing.T) {
	k, _, _ := bootPair(t)
	k.Net.SetEphemeralRange(40000, 40002) // three ephemeral ports
	var fourth, retry uint64
	if _, err := k.Spawn("hog", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 6000)
		p.Syscall(SysListen, sfd)
		var fds []uint64
		for i := 0; i < 3; i++ {
			fd := p.Syscall(SysSocket)
			p.Syscall(SysNonblock, fd, 1)
			if ret := p.Syscall(SysConnect, fd, 6000, LocalHost); ret != 0 {
				t.Errorf("connect %d failed: %d", i, int64(ret))
			}
			fds = append(fds, fd)
		}
		fd := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, fd, 1)
		fourth = p.Syscall(SysConnect, fd, 6000, LocalHost)
		// Releasing one connection frees its port for reuse.
		p.Syscall(SysClose, fds[0])
		retry = p.Syscall(SysConnect, fd, 6000, LocalHost)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if e, bad := IsErr(fourth); !bad || e != EAGAIN {
		t.Errorf("4th connect = %d, want EAGAIN", int64(fourth))
	}
	if retry != 0 {
		t.Errorf("connect after close = %d, want success", int64(retry))
	}
}

// TestLateFrameDropCounters (the FIN-race fix): frames addressed to a
// port with no connection are dropped with accounting, not silently.
func TestLateFrameDropCounters(t *testing.T) {
	server, client, _ := bootPair(t)
	client.M.NIC.Send(hw.Packet{Port: 5555, Payload: mkFrame(pktDATA, 1234, 5555, []byte("late"))})
	client.M.NIC.Send(hw.Packet{Port: 5556, Payload: mkFrame(pktFIN, 1234, 5556, nil)})
	server.Net.Poll()
	st := server.Net.Stats()
	if st.LateDataDrops != 1 || st.LateFinDrops != 1 {
		t.Errorf("late drops = %+v", st)
	}
}

// TestRecvDrainsBufferedDataBeforeEOF: data that arrived before the
// peer's FIN is readable after it; EOF comes only once the buffer is
// empty.
func TestRecvDrainsBufferedDataBeforeEOF(t *testing.T) {
	k, _, _ := bootPair(t)
	var got string
	var eof bool
	if _, err := k.Spawn("p", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7100)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, cfd, 1) // loopback: accept runs in this proc
		p.Syscall(SysConnect, cfd, 7100, LocalHost)
		afd := p.Syscall(SysAccept, sfd)
		msg := p.PushString("hello")
		p.Syscall(SysSendTo, cfd, msg, 5)
		p.Syscall(SysClose, cfd) // FIN with "hello" still buffered
		buf := p.Alloc(16)
		n := p.Syscall(SysRecv, afd, buf, 16)
		got = string(p.Read(buf, int(n)))
		eof = p.Syscall(SysRecv, afd, buf, 16) == 0
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if got != "hello" || !eof {
		t.Errorf("got %q, eof=%v; want buffered data then EOF", got, eof)
	}
}

// TestDoubleClose: the second close of a socket fd is EBADF, and the
// underlying connection teardown is idempotent.
func TestDoubleClose(t *testing.T) {
	k, _, _ := bootPair(t)
	var second uint64
	if _, err := k.Spawn("p", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7200)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, cfd, 1)
		p.Syscall(SysConnect, cfd, 7200, LocalHost)
		p.Syscall(SysClose, cfd)
		second = p.Syscall(SysClose, cfd)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if e, bad := IsErr(second); !bad || e != EBADF {
		t.Errorf("double close = %d, want EBADF", int64(second))
	}
}

// TestWriteAfterPeerFIN: writing into a connection whose peer closed
// returns EPIPE and raises SIGPIPE.
func TestWriteAfterPeerFIN(t *testing.T) {
	k, _, _ := bootPair(t)
	var ret uint64
	sigpiped := false
	if _, err := k.Spawn("p", func(p *Proc) {
		addr := p.RegisterCode(func(p *Proc, args []uint64) { sigpiped = true })
		p.Syscall(SysSigact, SIGPIPE, addr)
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7300)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, cfd, 1)
		p.Syscall(SysConnect, cfd, 7300, LocalHost)
		afd := p.Syscall(SysAccept, sfd)
		p.Syscall(SysClose, afd) // server side FINs
		msg := p.PushString("doomed")
		ret = p.Syscall(SysSendTo, cfd, msg, 6)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if e, bad := IsErr(ret); !bad || e != EPIPE {
		t.Errorf("write after FIN = %d, want EPIPE", int64(ret))
	}
	if !sigpiped {
		t.Errorf("SIGPIPE not delivered")
	}
}

// TestBindReuseAfterTeardown: closing a listener releases its port for
// a fresh bind.
func TestBindReuseAfterTeardown(t *testing.T) {
	k, _, _ := bootPair(t)
	var rebind uint64
	done := false
	if _, err := k.Spawn("p", func(p *Proc) {
		defer func() { done = true }()
		a := p.Syscall(SysSocket)
		p.Syscall(SysBind, a, 7400)
		p.Syscall(SysListen, a)
		p.Syscall(SysClose, a)
		b := p.Syscall(SysSocket)
		rebind = p.Syscall(SysBind, b, 7400)
		p.Syscall(SysListen, b)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !done {
		t.Fatal("proc stalled")
	}
	if rebind != 0 {
		t.Errorf("rebind after teardown = %d, want 0", int64(rebind))
	}
}

// TestSegmentationAtMTUBoundary: a send of exactly maxSegment bytes is
// one DATA frame; one more byte adds a second, 1-byte frame. The
// server waits until every byte is queued on its connection and reads
// the segment lengths off the queue before it receives.
func TestSegmentationAtMTUBoundary(t *testing.T) {
	server, client, world := bootPair(t)
	var segs []int
	total := maxSegment + (maxSegment + 1)
	var received int
	if _, err := server.Spawn("srv", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7500)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysAccept, sfd)
		s, e := sockOf(p, int(cfd))
		if e != 0 {
			return
		}
		c := s.conn
		p.block(func() bool { server.Net.Poll(); return c.rxLen >= total })
		for _, seg := range c.rxq[c.rxHead:] {
			segs = append(segs, len(seg))
		}
		buf := p.Alloc(64 * 1024)
		for received < total {
			n := p.Syscall(SysRecv, cfd, buf, 64*1024)
			if _, bad := IsErr(n); bad || n == 0 {
				break
			}
			received += int(n)
		}
	}); err != nil {
		t.Fatal(err)
	}
	done := false
	if _, err := client.Spawn("cli", func(p *Proc) {
		fd := p.Syscall(SysSocket)
		p.Syscall(SysConnect, fd, 7500, RemoteHost)
		buf := p.Alloc(maxSegment + 1)
		p.Write(buf, bytes.Repeat([]byte{'a'}, maxSegment+1))
		p.Syscall(SysSendTo, fd, buf, uint64(maxSegment)) // exactly one MTU
		p.Syscall(SysSendTo, fd, buf, uint64(maxSegment+1))
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done && received >= total }) {
		t.Fatalf("stalled: %d/%d", received, total)
	}
	want := []int{maxSegment, maxSegment, 1}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments = %v, want %v", segs, want)
		}
	}
}

// TestListenerBacklogCap: SYNs beyond the cap are dropped and counted.
func TestListenerBacklogCap(t *testing.T) {
	k, _, _ := bootPair(t)
	if _, err := k.Spawn("p", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7600)
		p.Syscall(SysListen, sfd, 2) // backlog cap 2
		for i := 0; i < 5; i++ {
			fd := p.Syscall(SysSocket)
			p.Syscall(SysNonblock, fd, 1)
			p.Syscall(SysConnect, fd, 7600, LocalHost)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if got := k.Net.Stats().SynDrops; got != 3 {
		t.Errorf("SynDrops = %d, want 3", got)
	}
}

// TestConnectRefused: a blocking connect to a port nobody listens on
// draws an RST and fails fast with ECONNREFUSED — it must not hang
// waiting for a SYNACK that will never come (the connect-before-listen
// race the epoch scheduler exposes).
func TestConnectRefused(t *testing.T) {
	server, client, world := bootPair(t)
	var ret uint64
	done := false
	if _, err := client.Spawn("cli", func(p *Proc) {
		fd := p.Syscall(SysSocket)
		ret = p.Syscall(SysConnect, fd, 9999, RemoteHost)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done }) {
		t.Fatal("connect never returned")
	}
	if e, bad := IsErr(ret); !bad || e != ECONNREFUSED {
		t.Errorf("connect = %d, want ECONNREFUSED", int64(ret))
	}
	if got := server.Net.Stats().RefusedSyns; got != 1 {
		t.Errorf("RefusedSyns = %d, want 1", got)
	}
}

// TestConnectTimeout: a SYN silently dropped by a full listener backlog
// (no RST — the TCP overflow shape) leaves the connect pending until
// its timeout fires (virtual time skips to the expiry)
// instead of hanging forever.
func TestConnectTimeout(t *testing.T) {
	server, client, world := bootPair(t)
	if _, err := server.Spawn("srv", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7800)
		p.Syscall(SysListen, sfd, 1)
		// Never accepts on 7800: the one backlog slot stays occupied.
		// Park forever in a blocking accept on a second listener nobody
		// dials (keeps the proc — and with it the 7800 listener — alive).
		pfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, pfd, 7801)
		p.Syscall(SysListen, pfd)
		p.Syscall(SysAccept, pfd)
	}); err != nil {
		t.Fatal(err)
	}
	var ret uint64
	done := false
	if _, err := client.Spawn("cli", func(p *Proc) {
		f1 := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, f1, 1)
		p.Syscall(SysConnect, f1, 7800, RemoteHost) // fills the backlog
		fd := p.Syscall(SysSocket)
		p.Syscall(SysSockTimeo, fd, 2_000_000)
		ret = p.Syscall(SysConnect, fd, 7800, RemoteHost)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done }) {
		t.Fatal("connect never timed out")
	}
	if e, bad := IsErr(ret); !bad || e != ETIMEDOUT {
		t.Errorf("connect = %d, want ETIMEDOUT", int64(ret))
	}
	if got := server.Net.Stats().SynDrops; got != 1 {
		t.Errorf("SynDrops = %d, want 1", got)
	}
}

// TestNonblockWindowBackpressure: with a small receive window, a
// nonblocking send returns a short count, then EAGAIN; draining the
// receiver reopens the window.
func TestNonblockWindowBackpressure(t *testing.T) {
	k, _, _ := bootPair(t)
	k.Net.SetRecvWindow(1024)
	var short, again, after uint64
	if _, err := k.Spawn("p", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7700)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, cfd, 1)
		p.Syscall(SysConnect, cfd, 7700, LocalHost)
		afd := p.Syscall(SysAccept, sfd)
		buf := p.Alloc(4096)
		p.Write(buf, bytes.Repeat([]byte{'b'}, 4096))
		short = p.Syscall(SysSendTo, cfd, buf, 4096)
		again = p.Syscall(SysSendTo, cfd, buf, 4096)
		rbuf := p.Alloc(4096)
		p.Syscall(SysRecv, afd, rbuf, 4096) // drain the window
		after = p.Syscall(SysSendTo, cfd, buf, 4096)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if short != 1024 {
		t.Errorf("first send = %d, want short count 1024", int64(short))
	}
	if e, bad := IsErr(again); !bad || e != EAGAIN {
		t.Errorf("send into full window = %d, want EAGAIN", int64(again))
	}
	if after != 1024 {
		t.Errorf("send after drain = %d, want 1024", int64(after))
	}
}

// TestBlockingWindowBackpressure: a bulk transfer much larger than the
// receive window completes intact across machines — the sender blocks
// on the window and resumes as the receiver drains.
func TestBlockingWindowBackpressure(t *testing.T) {
	server, client, world := bootPair(t)
	server.Net.SetRecvWindow(4096)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	var received []byte
	if _, err := server.Spawn("srv", func(p *Proc) {
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7800)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysAccept, sfd)
		buf := p.Alloc(2048)
		for len(received) < len(payload) {
			n := p.Syscall(SysRecv, cfd, buf, 2048)
			if _, bad := IsErr(n); bad || n == 0 {
				break
			}
			received = append(received, p.Read(buf, int(n))...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	done := false
	if _, err := client.Spawn("cli", func(p *Proc) {
		fd := p.Syscall(SysSocket)
		p.Syscall(SysConnect, fd, 7800, RemoteHost)
		buf := p.Alloc(len(payload))
		p.Write(buf, payload)
		p.Syscall(SysSendTo, fd, buf, uint64(len(payload)))
		p.Syscall(SysClose, fd)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done && len(received) >= len(payload) }) {
		t.Fatalf("stalled at %d/%d", len(received), len(payload))
	}
	if !bytes.Equal(received, payload) {
		t.Error("payload corrupted under backpressure")
	}
}

// TestPollSyscalls: level-triggered readiness, poll-set edit errnos,
// and the poll-wait timeout driven by a network timer.
func TestPollSyscalls(t *testing.T) {
	k, _, _ := bootPair(t)
	var fail string
	done := false
	if _, err := k.Spawn("p", func(p *Proc) {
		defer func() { done = true }()
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 7900)
		p.Syscall(SysListen, sfd)
		cfd := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, cfd, 1)
		p.Syscall(SysConnect, cfd, 7900, LocalHost)
		afd := p.Syscall(SysAccept, sfd)

		pfd := p.Syscall(SysPollCreate)
		if ret := p.Syscall(SysPollCtl, pfd, PollCtlAdd, afd, POLLIN); ret != 0 {
			fail = "add"
			return
		}
		if e, _ := IsErr(p.Syscall(SysPollCtl, pfd, PollCtlAdd, afd, POLLIN)); e != EEXIST {
			fail = "dup add not EEXIST"
			return
		}
		if e, _ := IsErr(p.Syscall(SysPollCtl, pfd, PollCtlMod, 99, POLLIN)); e != EBADF {
			fail = "mod of bad fd"
			return
		}
		if e, _ := IsErr(p.Syscall(SysPollCtl, pfd, PollCtlDel, sfd)); e != ENOENT {
			fail = "del of non-member not ENOENT"
			return
		}
		// Nothing readable yet: wait with a timeout, which must elapse
		// (virtual time skips to it) and report zero events.
		evb := p.Alloc(8 * 8)
		if n := p.Syscall(SysPollWait, pfd, evb, 8, 1_000_000); n != 0 {
			fail = "timeout wait returned events"
			return
		}
		// Send data; level-triggered POLLIN persists until drained.
		msg := p.PushString("abcdef")
		p.Syscall(SysSendTo, cfd, msg, 6)
		for i := 0; i < 2; i++ {
			if n := p.Syscall(SysPollWait, pfd, evb, 8, 0); n != 1 {
				fail = "pollwait count"
				return
			}
			if fd := p.Load(evb, 4); fd != afd {
				fail = "pollwait fd"
				return
			}
			if ev := p.Load(evb+4, 4); ev&POLLIN == 0 {
				fail = "no POLLIN"
				return
			}
		}
		buf := p.Alloc(16)
		p.Syscall(SysRecv, afd, buf, 16)
		if n := p.Syscall(SysPollWait, pfd, evb, 8, 500_000); n != 0 {
			fail = "drained socket still ready"
			return
		}
		// Peer close: POLLIN|POLLHUP even with only POLLIN interest.
		p.Syscall(SysClose, cfd)
		if n := p.Syscall(SysPollWait, pfd, evb, 8, 0); n != 1 {
			fail = "no event after close"
			return
		}
		if ev := p.Load(evb+4, 4); ev&POLLHUP == 0 || ev&POLLIN == 0 {
			fail = "close not POLLIN|POLLHUP"
			return
		}
		// Interest 0 is a member too: a second add is EEXIST and mod
		// works; after del, mod is ENOENT.
		zfd := p.Syscall(SysSocket)
		if ret := p.Syscall(SysPollCtl, pfd, PollCtlAdd, zfd, 0); ret != 0 {
			fail = "add with interest 0"
			return
		}
		if e, _ := IsErr(p.Syscall(SysPollCtl, pfd, PollCtlAdd, zfd, POLLIN)); e != EEXIST {
			fail = "dup add of an interest-0 member not EEXIST"
			return
		}
		if ret := p.Syscall(SysPollCtl, pfd, PollCtlMod, zfd, POLLIN); ret != 0 {
			fail = "mod of an interest-0 member"
			return
		}
		if ret := p.Syscall(SysPollCtl, pfd, PollCtlDel, zfd); ret != 0 {
			fail = "del of a member"
			return
		}
		if e, _ := IsErr(p.Syscall(SysPollCtl, pfd, PollCtlMod, zfd, POLLIN)); e != ENOENT {
			fail = "mod after del not ENOENT"
			return
		}
		// Numbers never opened, past the table and negative: add and
		// del fail, and the interest slice does not grow.
		ps, _ := pollSetOf(p, int(pfd))
		before := len(ps.interest)
		for _, bad := range []uint64{4000, 1 << 20, 1 << 40, ^uint64(0)} {
			if e, _ := IsErr(p.Syscall(SysPollCtl, pfd, PollCtlAdd, bad, POLLIN)); e != EBADF {
				fail = fmt.Sprintf("add of unopened fd %#x: errno %d, want EBADF", bad, e)
				return
			}
			if e, _ := IsErr(p.Syscall(SysPollCtl, pfd, PollCtlDel, bad)); e != ENOENT {
				fail = fmt.Sprintf("del of unopened fd %#x: errno %d, want ENOENT", bad, e)
				return
			}
		}
		if len(ps.interest) != before {
			fail = fmt.Sprintf("interest slice grew from %d to %d on unopened fds", before, len(ps.interest))
			return
		}
		// A member numbered past 4,096 reports like any other.
		hfd := p.Syscall(SysSocket)
		for hfd < 4096 {
			hfd = p.Syscall(SysSocket)
		}
		if _, bad := IsErr(hfd); bad {
			fail = "socket past fd 4096"
			return
		}
		p.Syscall(SysNonblock, hfd, 1)
		p.Syscall(SysConnect, hfd, 7900, LocalHost)
		hafd := p.Syscall(SysAccept, sfd)
		pfd2 := p.Syscall(SysPollCreate)
		if ret := p.Syscall(SysPollCtl, pfd2, PollCtlAdd, hafd, POLLIN); ret != 0 || hafd < 4096 {
			fail = fmt.Sprintf("add of fd %d", hafd)
			return
		}
		p.Syscall(SysSendTo, hfd, msg, 6)
		if n := p.Syscall(SysPollWait, pfd2, evb, 8, 0); n != 1 {
			fail = "no event at a high fd"
			return
		}
		if fd, ev := p.Load(evb, 4), p.Load(evb+4, 4); fd != hafd || ev != POLLIN {
			fail = fmt.Sprintf("high fd event (%d, %#x), want (%d, POLLIN)", fd, ev, hafd)
			return
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !done {
		t.Fatal("proc stalled")
	}
	if fail != "" {
		t.Fatal(fail)
	}
}

// TestNonblockingConnectAndAccept: EAGAIN disciplines and POLLOUT as
// connect completion.
func TestNonblockingConnectAndAccept(t *testing.T) {
	k, _, _ := bootPair(t)
	var fail string
	done := false
	if _, err := k.Spawn("p", func(p *Proc) {
		defer func() { done = true }()
		sfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, sfd, 8000)
		p.Syscall(SysListen, sfd)
		p.Syscall(SysNonblock, sfd, 1)
		if e, _ := IsErr(p.Syscall(SysAccept, sfd)); e != EAGAIN {
			fail = "accept on empty backlog not EAGAIN"
			return
		}
		cfd := p.Syscall(SysSocket)
		p.Syscall(SysNonblock, cfd, 1)
		if ret := p.Syscall(SysConnect, cfd, 8000, LocalHost); ret != 0 {
			fail = "nonblocking connect errored"
			return
		}
		afd := p.Syscall(SysAccept, sfd) // SYN queued: succeeds now
		if _, bad := IsErr(afd); bad {
			fail = "accept after SYN failed"
			return
		}
		// SYNACK (synchronous on loopback) established the client side:
		// POLLOUT reports.
		pfd := p.Syscall(SysPollCreate)
		p.Syscall(SysPollCtl, pfd, PollCtlAdd, cfd, POLLOUT)
		evb := p.Alloc(8)
		if n := p.Syscall(SysPollWait, pfd, evb, 1, 0); n != 1 {
			fail = "no POLLOUT after establish"
			return
		}
		if ev := p.Load(evb+4, 4); ev&POLLOUT == 0 {
			fail = "event not POLLOUT"
			return
		}
		// Nonblocking recv with nothing buffered: EAGAIN.
		buf := p.Alloc(8)
		if e, _ := IsErr(p.Syscall(SysRecv, afd, buf, 8)); e != EAGAIN {
			fail = "nonblock recv not EAGAIN"
			return
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !done {
		t.Fatal("proc stalled")
	}
	if fail != "" {
		t.Fatal(fail)
	}
}

// TestNetSnapshotRoundTrip: armed timers block capture (quiescence);
// the NetSnap section restores the port cursor, window default, stats,
// and the timer-id sequence.
func TestNetSnapshotRoundTrip(t *testing.T) {
	k, client, _ := bootPair(t)
	// Accumulate some observable net state.
	client.M.NIC.Send(hw.Packet{Port: 4242, Payload: mkFrame(pktDATA, 1, 4242, []byte("x"))})
	k.Net.Poll() // LateDataDrops = 1
	k.Net.SetRecvWindow(8192)
	k.Net.nextPort = 45000
	tm := k.Net.timers.after(k.M.Clock.Cycles(), 50_000, func() {})
	if _, err := k.CaptureKernelSnap(); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("capture with armed timer = %v, want ErrNotQuiescent", err)
	}
	k.Net.timers.cancel(tm)
	snap, err := k.CaptureKernelSnap()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Net.NextPort != 45000 || snap.Net.RecvWindow != 8192 || snap.Net.Stats.LateDataDrops != 1 {
		t.Fatalf("captured NetSnap = %+v", snap.Net)
	}
	wantSeq := snap.Net.TimerSeq
	// Perturb, then restore.
	k.Net.nextPort = 1
	k.Net.defWindow = 7
	k.Net.stats = NetStats{}
	k.Net.timers = newTimerQueue()
	if err := restoreKernel(k, snap); err != nil {
		t.Fatal(err)
	}
	if k.Net.nextPort != 45000 || k.Net.defWindow != 8192 || k.Net.stats.LateDataDrops != 1 {
		t.Errorf("restored net state: port=%d win=%d stats=%+v", k.Net.nextPort, k.Net.defWindow, k.Net.stats)
	}
	if k.Net.timers.nextSeq != wantSeq {
		t.Errorf("timer seq = %d, want %d", k.Net.timers.nextSeq, wantSeq)
	}
}
