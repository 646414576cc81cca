package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// scanReady is the brute-force reference for PollSet.collect: every
// member in ascending fd order, readiness recomputed for each, up to
// maxev (fd, events) pairs.
func scanReady(ps *PollSet, maxev int) []byte {
	var out []byte
	for _, fd := range pollMembers(ps) {
		if ev := ps.readiness(fd); ev != 0 {
			out = append(out,
				byte(fd), byte(fd>>8), byte(fd>>16), byte(fd>>24),
				byte(ev), byte(ev>>8), byte(ev>>16), byte(ev>>24))
			if len(out)/8 == maxev {
				break
			}
		}
	}
	return out
}

// pollMembers lists ps's member fds in ascending order, walking the
// interest slice.
func pollMembers(ps *PollSet) []int {
	var fds []int
	for fd := range ps.interest {
		if _, member := ps.member(fd); member {
			fds = append(fds, fd)
		}
	}
	return fds
}

// checkReadyList reports whether ps keeps its candidate invariant —
// every ready member has its bit set — and its ready-list walk returns
// exactly what the scan returns, for maxev 1 and 64.
func checkReadyList(t *testing.T, step int, what string, ps *PollSet) bool {
	t.Helper()
	for _, fd := range pollMembers(ps) {
		ev := ps.readiness(fd)
		if ev != 0 && (fd/64 >= len(ps.cand) || ps.cand[fd/64]&(1<<(fd%64)) == 0) {
			t.Errorf("step %d (%s): member %d is ready (%#x) but not a candidate", step, what, fd, ev)
			return false
		}
	}
	for _, maxev := range []int{1, 64} {
		want := scanReady(ps, maxev)
		if got := ps.collect(maxev); !bytes.Equal(got, want) {
			t.Errorf("step %d (%s): maxev %d: ready list % x, scan % x", step, what, maxev, got, want)
			return false
		}
	}
	return true
}

// TestPollReadyListMatchesScan is a seeded random walk over two linked
// kernels plus loopback. One process on kernel A dials, accepts, sends
// to, reads from and closes sockets and edits two poll sets; between
// its steps it also plays the far end on kernel B through that stack's
// own entry points (accept, recv, send, close, a drain), so every wake
// site is exercised: local state changes, window opens from the other
// machine, and descriptor-table changes at member numbers (a closed
// member, its number reused). Receive windows are small, so POLLOUT
// toggles; idle and connect timeouts fire as waits advance virtual
// time. After every step each poll set must keep its candidate
// invariant, and its ready list must equal a scan of all members.
func TestPollReadyListMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { readyListWalk(t, seed, 1500) })
	}
}

func readyListWalk(t *testing.T, seed int64, steps int) {
	kA, kB, world := bootPair(t)
	rng := rand.New(rand.NewSource(seed))
	kA.Net.SetRecvWindow(3000)
	kB.Net.SetRecvWindow(3000)
	lB := &Listener{port: 9300}
	kB.Net.listeners.set(lB.port, lB)
	var bConns []*Conn
	done := false
	completed := 0
	if _, err := kA.Spawn("walk", func(p *Proc) {
		defer func() { done = true }()
		// Sends into closed connections raise SIGPIPE; catch it so the
		// walk keeps going.
		p.Syscall(SysSigact, SIGPIPE, p.RegisterCode(func(*Proc, []uint64) {}))
		buf := p.Alloc(4096)
		evb := p.Alloc(64 * 8)
		// Two poll sets stay open; a step that closes one gets a fresh
		// one, which may reuse its number.
		var setFDs []uint64
		openSets := func() {
			for len(p.pollSets) < 2 {
				p.Syscall(SysPollCreate)
			}
			setFDs = setFDs[:0]
			for fd, d := range p.fds {
				if d == nil {
					continue
				}
				if _, isSet := d.Ops.(*PollSet); isSet {
					setFDs = append(setFDs, uint64(fd))
				}
			}
		}
		openSets()
		set := func() uint64 { return setFDs[rng.Intn(len(setFDs))] }
		interest := func() uint64 {
			return []uint64{POLLIN, POLLIN, POLLOUT, POLLOUT, POLLIN | POLLOUT, 0}[rng.Intn(6)]
		}
		lfd := p.Syscall(SysSocket)
		p.Syscall(SysBind, lfd, 9200)
		p.Syscall(SysListen, lfd, 4)
		p.Syscall(SysNonblock, lfd, 1)
		p.Syscall(SysPollCtl, set(), PollCtlAdd, lfd, POLLIN)
		// socks are the socket numbers steps opened and have not closed.
		// sock picks one, mostly among those whose connection is in the
		// state a step wants (as a program would use them); any socket
		// and the listener come up too.
		var socks []uint64
		sockWhere := func(want func(c *Conn) bool) (uint64, int) {
			if len(socks) == 0 || rng.Intn(12) == 0 {
				return lfd, -1
			}
			var fit []int
			for i, fd := range socks {
				if s, e := sockOf(p, int(fd)); e == 0 && s.conn != nil && want(s.conn) {
					fit = append(fit, i)
				}
			}
			i := rng.Intn(len(socks))
			if len(fit) > 0 && rng.Intn(4) != 0 {
				i = fit[rng.Intn(len(fit))]
			}
			return socks[i], i
		}
		open := func(c *Conn) bool { return c.established && !c.closed && !c.peerClosed }
		sock := func() (uint64, int) { return sockWhere(open) }
		bConn := func() (*Conn, int) {
			if len(bConns) == 0 {
				return nil, -1
			}
			i := rng.Intn(len(bConns))
			return bConns[i], i
		}
		dests := []struct {
			port uint16
			host uint64
		}{{9200, LocalHost}, {9200, LocalHost}, {9300, RemoteHost}, {9300, RemoteHost}, {9301, RemoteHost}, {9201, LocalHost}}
		type op struct {
			weight int
			name   string
			do     func()
		}
		ops := []op{
			{4, "dial", func() {
				fd := p.Syscall(SysSocket)
				p.Syscall(SysNonblock, fd, 1)
				if rng.Intn(3) == 0 {
					p.Syscall(SysSockTimeo, fd, uint64(20_000+rng.Intn(300_000)))
				}
				added := rng.Intn(2) == 0
				if added {
					p.Syscall(SysPollCtl, set(), PollCtlAdd, fd, interest())
				}
				if rng.Intn(4) != 0 {
					d := dests[rng.Intn(len(dests))]
					p.Syscall(SysConnect, fd, uint64(d.port), d.host)
				}
				if !added && rng.Intn(2) == 0 {
					p.Syscall(SysPollCtl, set(), PollCtlAdd, fd, interest())
				}
				socks = append(socks, fd)
				if len(socks) > 24 {
					p.Syscall(SysClose, socks[0])
					socks = socks[1:]
				}
			}},
			{2, "connect", func() {
				// Connect a socket that is already a member, so the
				// connection's state shows through a number that was
				// not ready before.
				for _, fd := range socks {
					if s, e := sockOf(p, int(fd)); e == 0 && s.conn == nil && s.listener == nil {
						d := dests[rng.Intn(len(dests))]
						p.Syscall(SysConnect, fd, uint64(d.port), d.host)
						return
					}
				}
			}},
			{3, "accept", func() {
				for {
					fd, bad := IsErr(p.Syscall(SysAccept, lfd))
					if bad {
						return
					}
					socks = append(socks, fd)
					if rng.Intn(3) != 0 {
						p.Syscall(SysPollCtl, set(), PollCtlAdd, fd, interest())
					}
				}
			}},
			{4, "send", func() {
				fd, _ := sock()
				p.Syscall(SysSendTo, fd, buf, uint64(1+rng.Intn(4000)))
			}},
			{4, "recv", func() {
				fd, _ := sockWhere(func(c *Conn) bool { return c.rxLen > 0 })
				p.Syscall(SysRecv, fd, buf, uint64(1+rng.Intn(4000)))
			}},
			{2, "close", func() {
				if fd, i := sock(); i >= 0 {
					p.Syscall(SysClose, fd)
					socks = append(socks[:i], socks[i+1:]...)
				}
			}},
			{1, "close-any", func() {
				p.Syscall(SysClose, uint64(rng.Intn(len(p.fds)+2)))
			}},
			{3, "add", func() {
				fd, _ := sock()
				p.Syscall(SysPollCtl, set(), PollCtlAdd, fd, interest())
			}},
			{3, "mod", func() {
				fd, _ := sock()
				p.Syscall(SysPollCtl, set(), PollCtlMod, fd, interest())
			}},
			{1, "del", func() {
				fd, _ := sock()
				p.Syscall(SysPollCtl, set(), PollCtlDel, fd)
			}},
			{3, "wait", func() {
				p.Syscall(SysPollWait, set(), evb, uint64(1+rng.Intn(64)), uint64(1+rng.Intn(300_000)))
			}},
			{2, "timeo", func() {
				fd, _ := sock()
				p.Syscall(SysSockTimeo, fd, uint64(20_000+rng.Intn(400_000)))
			}},
			{1, "nonblock", func() {
				fd, _ := sock()
				p.Syscall(SysNonblock, fd, 1)
			}},
			{1, "window", func() {
				k := kA
				if rng.Intn(2) == 0 {
					k = kB
				}
				k.Net.SetRecvWindow(1500 + rng.Intn(4500))
			}},
			{1, "a-poll", func() { kA.Net.Poll() }},
			{2, "b-poll", func() { kB.Net.Poll() }},
			{3, "b-accept", func() {
				if c, e := kB.Net.Accept(nil, lB, true); e == 0 {
					bConns = append(bConns, c)
				}
			}},
			{3, "b-recv", func() {
				if c, _ := bConn(); c != nil {
					kB.Net.Recv(nil, c, 1+rng.Intn(4000), true)
				}
			}},
			{3, "b-send", func() {
				if c, _ := bConn(); c != nil && !c.closed && !c.peerClosed {
					kB.Net.Send(nil, c, make([]byte, 1+rng.Intn(4000)), true)
				}
			}},
			{2, "b-close", func() {
				if c, i := bConn(); c != nil {
					kB.Net.CloseConn(c)
					bConns = append(bConns[:i], bConns[i+1:]...)
				}
			}},
		}
		total := 0
		for _, o := range ops {
			total += o.weight
		}
		for step := 0; step < steps; step++ {
			r := rng.Intn(total)
			i := 0
			for r >= ops[i].weight {
				r -= ops[i].weight
				i++
			}
			ops[i].do()
			for _, ps := range p.pollSets {
				if !checkReadyList(t, step, ops[i].name, ps) {
					return
				}
			}
			openSets()
			completed++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done }) {
		t.Fatal("walk stalled")
	}
	if completed != steps && !t.Failed() {
		t.Fatalf("walk ended after %d of %d steps", completed, steps)
	}
}
