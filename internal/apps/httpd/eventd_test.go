package httpd

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/kernel"
)

func bootOne(t *testing.T, mode repro.Mode) *repro.System {
	t.Helper()
	sys, err := repro.NewSystem(mode)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEventServerKeepAlive drives the full protocol over loopback:
// several requests on one connection, sealed login/auth sessions, 404s,
// rejected tokens, and an oversized header that gets 400-and-close.
func TestEventServerKeepAlive(t *testing.T) {
	sys := bootOne(t, repro.Native)
	payload := make([]byte, 10_000)
	sys.Machine.RNG.Fill(payload)
	sys.Kernel.WriteKernelFile("/a.bin", payload)
	appKey := bytes.Repeat([]byte{7}, 32)
	cfg := EventServerConfig{Port: EventPort, AppKey: appKey}
	if _, err := sys.Kernel.Spawn("eventd", EventServerMain(cfg)); err != nil {
		t.Fatal(err)
	}
	var fail string
	done := false
	if _, err := sys.Kernel.Spawn("client", func(p *kernel.Proc) {
		defer func() { done = true }()
		fd, ok := EventDial(p, EventPort, false)
		if !ok {
			fail = "dial"
			return
		}
		// Two GETs on the same connection: keep-alive.
		for i := 0; i < 2; i++ {
			st, body, ok := EventRequest(p, fd, "GET /a.bin")
			if !ok || !strings.HasPrefix(st, "200 ") || !bytes.Equal(body, payload) {
				fail = "keep-alive GET"
				return
			}
		}
		if st, _, _ := EventRequest(p, fd, "GET /nope"); st != "404" {
			fail = "404: " + st
			return
		}
		// Session flow: LOGIN yields a sealed token, AUTH accepts it.
		st, _, ok := EventRequest(p, fd, "LOGIN alice")
		if !ok || !strings.HasPrefix(st, "210 ") {
			fail = "login: " + st
			return
		}
		token := strings.TrimPrefix(st, "210 ")
		st, body, ok := EventRequest(p, fd, "AUTH "+token+" /a.bin")
		if !ok || !strings.HasPrefix(st, "200 ") || !bytes.Equal(body, payload) {
			fail = "auth serve: " + st
			return
		}
		// A forged token (valid hex, bad ciphertext) is 403.
		if st, _, _ := EventRequest(p, fd, "AUTH deadbeef /a.bin"); st != "403" {
			fail = "forged token: " + st
			return
		}
		p.Syscall(kernel.SysClose, fd)
		// Oversized header: 400 then close.
		fd2, _ := EventDial(p, EventPort, false)
		junk := p.PushString(strings.Repeat("x", 400))
		p.Syscall(kernel.SysSendTo, fd2, junk, 400)
		buf := p.Alloc(64)
		n := p.Syscall(kernel.SysRecv, fd2, buf, 64)
		if string(p.Read(buf, int(n))) != "400\n" {
			fail = "oversized header"
			return
		}
		if n := p.Syscall(kernel.SysRecv, fd2, buf, 64); n != 0 {
			fail = "conn not closed after 400"
			return
		}
		p.Syscall(kernel.SysClose, fd2)
		StopEventServer(p, EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !done {
		t.Fatal("client stalled")
	}
	if fail != "" {
		t.Fatal(fail)
	}
	if n := sys.Kernel.NumLive(); n != 0 {
		t.Errorf("%d processes still alive after QUIT", n)
	}
}

// TestEventServerGhostKey runs the server as a trusted program under
// Virtual Ghost with no configured key: the session-sealing key comes
// from the VM (sva.getKey), which the OS never sees.
func TestEventServerGhostKey(t *testing.T) {
	sys := bootOne(t, repro.VirtualGhost)
	sys.Kernel.WriteKernelFile("/s.bin", []byte("sealed site"))
	cfg := EventServerConfig{Port: EventPort} // AppKey nil: fetch from VM
	if _, err := sys.Kernel.InstallTrustedProgram("/bin/eventd", nil, EventServerMain(cfg)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Kernel.SpawnProgram("/bin/eventd"); err != nil {
		t.Fatal(err)
	}
	var fail string
	done := false
	if _, err := sys.Kernel.Spawn("client", func(p *kernel.Proc) {
		defer func() { done = true }()
		fd, ok := EventDial(p, EventPort, false)
		if !ok {
			fail = "dial"
			return
		}
		st, _, ok := EventRequest(p, fd, "LOGIN bob")
		if !ok || !strings.HasPrefix(st, "210 ") {
			fail = "login: " + st
			return
		}
		token := strings.TrimPrefix(st, "210 ")
		st, body, ok := EventRequest(p, fd, "AUTH "+token+" /s.bin")
		if !ok || st != "200 11" || string(body) != "sealed site" {
			fail = "auth: " + st
			return
		}
		p.Syscall(kernel.SysClose, fd)
		StopEventServer(p, EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !done {
		t.Fatal("client stalled")
	}
	if fail != "" {
		t.Fatal(fail)
	}
}

// TestEventServerIdleKill is the slowloris defense: a client that sends
// a partial request line and stalls is auto-closed by the keep-alive
// reaper once virtual time skips to the idle timer's expiry.
func TestEventServerIdleKill(t *testing.T) {
	sys := bootOne(t, repro.Native)
	cfg := EventServerConfig{Port: EventPort, IdleTimeoutCycles: 2_000_000, AppKey: make([]byte, 32)}
	if _, err := sys.Kernel.Spawn("eventd", EventServerMain(cfg)); err != nil {
		t.Fatal(err)
	}
	killed := false
	if _, err := sys.Kernel.Spawn("slowloris", func(p *kernel.Proc) {
		fd, ok := EventDial(p, EventPort, false)
		if !ok {
			return
		}
		frag := p.PushString("GE")
		p.Syscall(kernel.SysSendTo, fd, frag, 2)
		// Block reading a reply that never comes; EOF means the server
		// cut us off.
		buf := p.Alloc(16)
		n := p.Syscall(kernel.SysRecv, fd, buf, 16)
		killed = n == 0
		p.Syscall(kernel.SysClose, fd)
		StopEventServer(p, EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !killed {
		t.Fatal("stalled connection was not idle-killed")
	}
	if got := sys.Kernel.Net.Stats().TimeoutKills; got != 1 {
		t.Errorf("TimeoutKills = %d, want 1", got)
	}
}

// TestEventServerIgnoresStatSize: the size stat reports is the OS's
// word, and a hostile OS may lie. With stat interposed to report 2^40
// bytes, a GET still gets the file's real bytes (under the lying
// status line), the server survives to serve QUIT, and the request
// allocates under 1 MiB on the host: no OS-reported size sizes a host
// buffer.
func TestEventServerIgnoresStatSize(t *testing.T) {
	const lie = 1 << 40
	sys := bootOne(t, repro.Native)
	payload := make([]byte, 10_000)
	sys.Machine.RNG.Fill(payload)
	sys.Kernel.WriteKernelFile("/a.bin", payload)
	var stat kernel.SyscallHandler
	stat = sys.Kernel.SetSyscallHandler(kernel.SysStat, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
		ret := stat(k, p, ic)
		if ret == 0 {
			p.Store(ic.Arg(1), 8, lie)
		}
		return ret
	})
	if _, err := sys.Kernel.Spawn("eventd", EventServerMain(EventServerConfig{AppKey: make([]byte, 32)})); err != nil {
		t.Fatal(err)
	}
	var reply []byte
	var alloc uint64
	done := false
	if _, err := sys.Kernel.Spawn("client", func(p *kernel.Proc) {
		defer func() { done = true }()
		fd, ok := EventDial(p, EventPort, false)
		if !ok {
			return
		}
		req := p.PushString("GET /a.bin\n")
		buf := p.Alloc(chunk)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		p.Syscall(kernel.SysSendTo, fd, req, 11)
		head := fmt.Sprintf("200 %d\n", lie)
		for len(reply) < len(head)+len(payload) {
			n := p.Syscall(kernel.SysRecv, fd, buf, chunk)
			if _, bad := kernel.IsErr(n); bad || n == 0 {
				break
			}
			reply = append(reply, p.Read(buf, int(n))...)
		}
		runtime.ReadMemStats(&ms)
		alloc = ms.TotalAlloc - before
		p.Syscall(kernel.SysClose, fd)
		StopEventServer(p, EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !done {
		t.Fatal("client stalled")
	}
	want := append([]byte(fmt.Sprintf("200 %d\n", lie)), payload...)
	if !bytes.Equal(reply, want) {
		t.Fatalf("reply is %d bytes starting %q, want the file under %q", len(reply), reply[:min(len(reply), 24)], want[:20])
	}
	if alloc >= 1<<20 {
		t.Errorf("the GET allocated %d host bytes, want under 1 MiB", alloc)
	}
	if n := sys.Kernel.NumLive(); n != 0 {
		t.Errorf("%d processes still alive after QUIT", n)
	}
}

// TestEventServerSurvivesInflatedReturns: a hostile OS reports more
// bytes than a call was handed. With eventd's sendto and the client's
// recv each inflated by 1,000, the server drops the connection instead
// of slicing past its output buffer, the client's request fails
// cleanly instead of reading past its receive buffer, and QUIT still
// stops the server.
func TestEventServerSurvivesInflatedReturns(t *testing.T) {
	const extra = 1000
	sys := bootOne(t, repro.Native)
	payload := make([]byte, 40_000)
	sys.Machine.RNG.Fill(payload)
	sys.Kernel.WriteKernelFile("/a.bin", payload)
	server, err := sys.Kernel.Spawn("eventd", EventServerMain(EventServerConfig{AppKey: make([]byte, 32)}))
	if err != nil {
		t.Fatal(err)
	}
	var client *kernel.Proc
	inflate := func(num uint64, who func(p *kernel.Proc) bool) {
		var orig kernel.SyscallHandler
		orig = sys.Kernel.SetSyscallHandler(num, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
			ret := orig(k, p, ic)
			if _, bad := kernel.IsErr(ret); bad || ret == 0 || !who(p) {
				return ret
			}
			return ret + extra
		})
	}
	inflate(kernel.SysSendTo, func(p *kernel.Proc) bool { return p == server })
	inflate(kernel.SysRecv, func(p *kernel.Proc) bool { return p == client })
	ok := true
	done := false
	client, err = sys.Kernel.Spawn("client", func(p *kernel.Proc) {
		defer func() { done = true }()
		fd, dialed := EventDial(p, EventPort, false)
		if !dialed {
			t.Error("dial failed")
			return
		}
		_, _, ok = EventRequest(p, fd, "GET /a.bin")
		p.Syscall(kernel.SysClose, fd)
		StopEventServer(p, EventPort, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !done {
		t.Fatal("client stalled")
	}
	if ok {
		t.Error("request over inflated returns reported ok=true")
	}
	if n := sys.Kernel.NumLive(); n != 0 {
		t.Errorf("%d processes still alive after QUIT", n)
	}
}
