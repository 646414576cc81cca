package httpd

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
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
// stops the server. With only the client's recv inflated on a small
// file, the inflated count stays inside the receive buffer, so only the
// reply's announced length can catch it: a body longer than the status
// line says fails the request.
func TestEventServerSurvivesInflatedReturns(t *testing.T) {
	const extra = 1000
	for _, tc := range []struct {
		name         string
		size         int
		inflateSends bool
	}{
		{"server sendto and client recv", 40_000, true},
		{"client recv only, small file", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := bootOne(t, repro.Native)
			payload := make([]byte, tc.size)
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
			if tc.inflateSends {
				inflate(kernel.SysSendTo, func(p *kernel.Proc) bool { return p == server })
			}
			inflate(kernel.SysRecv, func(p *kernel.Proc) bool { return p == client })
			ok := true
			var body []byte
			done := false
			client, err = sys.Kernel.Spawn("client", func(p *kernel.Proc) {
				defer func() { done = true }()
				fd, dialed := EventDial(p, EventPort, false)
				if !dialed {
					t.Error("dial failed")
					return
				}
				_, body, ok = EventRequest(p, fd, "GET /a.bin")
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
				t.Errorf("request over inflated returns reported ok=true with a %d-byte body for a %d-byte file", len(body), tc.size)
			}
			if n := sys.Kernel.NumLive(); n != 0 {
				t.Errorf("%d processes still alive after QUIT", n)
			}
		})
	}
}

// recvUpTo reads from fd until it has want bytes or the peer closes,
// and reports whether the read that ended it saw end of file.
func recvUpTo(p *kernel.Proc, fd uint64, want int) (got []byte, eof bool) {
	buf := p.Alloc(chunk)
	for len(got) < want {
		n := p.Syscall(kernel.SysRecv, fd, buf, chunk)
		if _, bad := kernel.IsErr(n); bad || n > chunk {
			return got, false
		}
		if n == 0 {
			return got, true
		}
		got = append(got, p.Read(buf, int(n))...)
	}
	return got, false
}

// TestEventServerPipelinedRepliesUnderSmallWindow: under a 2 KiB
// receive window a 10 KB reply cannot drain at once, so when one
// sendto carries five requests the server appends each later reply to
// the one still pending and hands the buffer it built that reply in
// straight back. Every reply
// must arrive byte-exact and in order: a buffer handed back while
// bytes in it were still unsent would have them overwritten by the
// next reply built there. The second connection puts the 10 KB reply
// behind the 24 KiB one, where such an overwrite lands on unsent
// bytes that differ, and then a 400-and-close, which closes only once
// the replies ahead of it have drained.
func TestEventServerPipelinedRepliesUnderSmallWindow(t *testing.T) {
	sys := bootOne(t, repro.Native)
	sys.Kernel.Net.SetRecvWindow(2 << 10)
	small, big := make([]byte, 10_000), make([]byte, 24<<10)
	sys.Machine.RNG.Fill(small)
	sys.Machine.RNG.Fill(big)
	sys.Kernel.WriteKernelFile("/a.bin", small)
	sys.Kernel.WriteKernelFile("/b.bin", big)
	appKey := bytes.Repeat([]byte{9}, 32)
	token, err := vgcrypt.SealWithKeyAndCounter(vgcrypt.DeriveKey(appKey, sessionLabel), 1, []byte("u=carol"))
	if err != nil {
		t.Fatal(err)
	}
	ok200 := func(body []byte) string { return fmt.Sprintf("200 %d\n%s", len(body), body) }
	want := ok200(small) + ok200(big) + ok200(small) + "404\n" + "210 " + hex.EncodeToString(token) + "\n"
	wantClose := ok200(big) + ok200(small) + "400\n"
	if _, err := sys.Kernel.Spawn("eventd", EventServerMain(EventServerConfig{AppKey: appKey})); err != nil {
		t.Fatal(err)
	}
	var got, gotClose []byte
	var closed bool
	done := false
	if _, err := sys.Kernel.Spawn("client", func(p *kernel.Proc) {
		defer func() { done = true }()
		send := func(fd uint64, reqs string) {
			msg := p.PushString(reqs)
			if ret := p.Syscall(kernel.SysSendTo, fd, msg, uint64(len(reqs))); ret != uint64(len(reqs)) {
				t.Errorf("sendto of %d request bytes returned %d", len(reqs), int64(ret))
			}
		}
		fd, ok := EventDial(p, EventPort, false)
		if !ok {
			t.Error("dial")
			return
		}
		send(fd, "GET /a.bin\nGET /b.bin\nGET /a.bin\nGET /nope\nLOGIN carol\n")
		got, _ = recvUpTo(p, fd, len(want))
		p.Syscall(kernel.SysClose, fd)

		fd2, ok := EventDial(p, EventPort, false)
		if !ok {
			t.Error("second dial")
			return
		}
		send(fd2, "GET /b.bin\nGET /a.bin\nBOGUS\n")
		gotClose, closed = recvUpTo(p, fd2, len(wantClose)+1)
		p.Syscall(kernel.SysClose, fd2)
		StopEventServer(p, EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !done {
		t.Fatal("client stalled")
	}
	if string(got) != want {
		t.Errorf("pipelined replies: %d bytes, want %d; first difference at byte %d", len(got), len(want), firstDiff(got, []byte(want)))
	}
	if string(gotClose) != wantClose || !closed {
		t.Errorf("replies then 400: %d bytes (closed %v), want %d then close; first difference at byte %d",
			len(gotClose), closed, len(wantClose), firstDiff(gotClose, []byte(wantClose)))
	}
	if n := sys.Kernel.NumLive(); n != 0 {
		t.Errorf("%d processes still alive after QUIT", n)
	}
}

// firstDiff is the index of the first byte where a and b differ, or
// the shorter length.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestEventServerReplyAllocation: a reply that drains at once hands
// its buffer back for the next one, so a keep-alive GET costs the host
// about what the loopback frames carrying the reply take, not a fresh
// reply buffer on top. The client reads into one host buffer
// (Proc.ReadInto), so what it allocates does not count either.
func TestEventServerReplyAllocation(t *testing.T) {
	const warm, reqs = 20, 400
	sys := bootOne(t, repro.Native)
	body := make([]byte, 24<<10)
	sys.Machine.RNG.Fill(body)
	sys.Kernel.WriteKernelFile("/b.bin", body)
	if _, err := sys.Kernel.Spawn("eventd", EventServerMain(EventServerConfig{AppKey: make([]byte, 32)})); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(fmt.Sprintf("200 %d\n", len(body))), body...)
	perReq := -1.0
	failed := -1
	if _, err := sys.Kernel.Spawn("client", func(p *kernel.Proc) {
		fd, ok := EventDial(p, EventPort, false)
		if !ok {
			return
		}
		const line = "GET /b.bin\n"
		msg := p.PushString(line)
		buf := p.Alloc(chunk)
		got := make([]byte, len(want))
		get := func() bool {
			if p.Syscall(kernel.SysSendTo, fd, msg, uint64(len(line))) != uint64(len(line)) {
				return false
			}
			for have := 0; have < len(got); {
				n := p.Syscall(kernel.SysRecv, fd, buf, chunk)
				if _, bad := kernel.IsErr(n); bad || n == 0 || have+int(n) > len(got) {
					return false
				}
				p.ReadInto(buf, got[have:have+int(n)])
				have += int(n)
			}
			return bytes.Equal(got, want)
		}
		for i := range warm {
			if !get() {
				failed = i
				return
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := range reqs {
			if !get() {
				failed = warm + i
				return
			}
		}
		runtime.ReadMemStats(&ms)
		perReq = float64(ms.TotalAlloc-before) / reqs
		p.Syscall(kernel.SysClose, fd)
		StopEventServer(p, EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if failed >= 0 {
		t.Fatalf("request %d failed or returned the wrong bytes", failed)
	}
	if perReq < 0 {
		t.Fatal("client stalled")
	}
	t.Logf("%.0f host bytes per %d-byte GET (%.2fx)", perReq, len(body), perReq/float64(len(body)))
	if limit := 1.5 * float64(len(body)); perReq >= limit {
		t.Errorf("a keep-alive GET allocates %.0f host bytes, want under %.0f (1.5x the file)", perReq, limit)
	}
}

// TestEventServerRejectsHugeAcceptedFD: the connection table is indexed
// by fd, and accept's return value is the OS's word. An accept that
// reports fd 2^40 must not size the table: the server closes that
// number and goes on serving the next connection.
func TestEventServerRejectsHugeAcceptedFD(t *testing.T) {
	sys := bootOne(t, repro.Native)
	sys.Kernel.WriteKernelFile("/s.bin", []byte("still here"))
	server, err := sys.Kernel.Spawn("eventd", EventServerMain(EventServerConfig{AppKey: make([]byte, 32)}))
	if err != nil {
		t.Fatal(err)
	}
	lied := false
	var accept kernel.SyscallHandler
	accept = sys.Kernel.SetSyscallHandler(kernel.SysAccept, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
		ret := accept(k, p, ic)
		if _, bad := kernel.IsErr(ret); bad || p != server || lied {
			return ret
		}
		lied = true
		return 1 << 40
	})
	var st string
	var body []byte
	done := false
	if _, err := sys.Kernel.Spawn("client", func(p *kernel.Proc) {
		defer func() { done = true }()
		first, ok := EventDial(p, EventPort, false)
		if !ok {
			t.Error("first dial")
			return
		}
		p.Syscall(kernel.SysClose, first)
		fd, ok := EventDial(p, EventPort, false)
		if !ok {
			t.Error("second dial")
			return
		}
		st, body, _ = EventRequest(p, fd, "GET /s.bin")
		p.Syscall(kernel.SysClose, fd)
		StopEventServer(p, EventPort, false)
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !done {
		t.Fatal("client stalled")
	}
	if !lied {
		t.Fatal("the server's accept was never interposed")
	}
	if st != "200 10" || string(body) != "still here" {
		t.Errorf("GET after the lying accept: %q %q, want \"200 10\" \"still here\"", st, body)
	}
	if n := sys.Kernel.NumLive(); n != 0 {
		t.Errorf("%d processes still alive after QUIT", n)
	}
}
