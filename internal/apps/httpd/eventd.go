// The event-driven ghost web server: one process serving every
// connection through nonblocking sockets and the poll-set readiness
// syscalls (DESIGN.md §19), in contrast to ServerMain's
// accept-serve-close loop. It speaks the same one-line protocol plus a
// session layer sealed with the application key, so a hostile OS that
// reads the server's buffers or the wire sees only ciphertext tokens:
//
//	GET <path>            -> 200 <len>\n<body> | 404\n
//	LOGIN <user>          -> 210 <hex sealed token>\n
//	AUTH <hextoken> <path> -> 200 <len>\n<body> | 403\n
//	QUIT                  -> server drains and exits
//
// Oversized or malformed request lines get 400\n and a close, which is
// what defeats the slowloris and oversized-header adversaries in the
// C10K experiment: a client that dribbles bytes forever is cut by the
// idle timeout, one that sends a huge "header" is cut at MaxHeader.
package httpd

import (
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
)

// EventPort is the event-driven server's default listening port.
const EventPort = 8080

// EventServerConfig parameterizes EventServerMain.
type EventServerConfig struct {
	Port    uint16
	Backlog int // listener backlog cap (0 = unlimited)
	// IdleTimeoutCycles auto-closes connections with no received data
	// for this long (0 = never): the keep-alive reaper.
	IdleTimeoutCycles uint64
	// MaxHeader caps the request line; longer lines get 400 and a
	// close. 0 means the default of 256 bytes.
	MaxHeader int
	// AppKey seals session tokens. nil means fetch the key from the VM
	// (sva.getKey) — the ghosting path, which requires the server to be
	// installed as a trusted program.
	AppKey []byte
}

// evConn is the per-connection state of the event loop: the partial
// request line read so far and the unsent response tail.
type evConn struct {
	in      []byte
	out     []byte
	wantOut bool // POLLOUT registered
	dead    bool // close after the out buffer drains
}

// sessionLabel derives the token-sealing subkey from the app key.
const sessionLabel = "eventd-session"

// EventServerMain returns the server's process main. The server owns
// every connection from one process: a poll set multiplexes the
// listener and all live connections, and the per-request work is the
// same requestUserCycles of parsing/logging CPU as the classic server.
func EventServerMain(cfg EventServerConfig) func(p *kernel.Proc) {
	if cfg.Port == 0 {
		cfg.Port = EventPort
	}
	if cfg.MaxHeader == 0 {
		cfg.MaxHeader = 256
	}
	return func(p *kernel.Proc) {
		key := cfg.AppKey
		if key == nil {
			k, err := p.GetKey()
			if err != nil {
				p.Exit(1)
			}
			key = k
		}
		sessKey := vgcrypt.DeriveKey(key, sessionLabel)

		sfd := p.Syscall(kernel.SysSocket)
		if ret := p.Syscall(kernel.SysBind, sfd, uint64(cfg.Port)); ret != 0 {
			p.Exit(1)
		}
		p.Syscall(kernel.SysListen, sfd, uint64(cfg.Backlog))
		// Accepted connections inherit both settings from the listener.
		p.Syscall(kernel.SysNonblock, sfd, 1)
		if cfg.IdleTimeoutCycles != 0 {
			p.Syscall(kernel.SysSockTimeo, sfd, cfg.IdleTimeoutCycles)
		}

		pfd := p.Syscall(kernel.SysPollCreate)
		p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlAdd, sfd, kernel.POLLIN)

		const maxEvents = 64
		evBuf := p.Alloc(maxEvents * 8)
		ioBuf := p.Alloc(chunk)
		conns := make(map[int]*evConn)
		var sessCtr uint64
		quit := false

		closeConn := func(fd int) {
			p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlDel, uint64(fd))
			p.Syscall(kernel.SysClose, uint64(fd))
			delete(conns, fd)
		}

		// flush pushes c.out until done or the window fills, adjusting
		// POLLOUT interest to match whether output is still pending.
		flush := func(fd int, c *evConn) {
			for len(c.out) > 0 {
				n := len(c.out)
				if n > chunk {
					n = chunk
				}
				p.Write(ioBuf, c.out[:n])
				ret := p.Syscall(kernel.SysSendTo, uint64(fd), ioBuf, uint64(n))
				if e, bad := kernel.IsErr(ret); bad && e == kernel.EAGAIN {
					break
				}
				if ret > uint64(n) {
					// The peer is gone, or the OS reported more bytes
					// sent than it was handed (an errno, read as
					// unsigned, is above any length): nothing more can
					// be delivered in order, so drop the connection.
					c.dead = true
					c.out = nil
					break
				}
				c.out = c.out[ret:]
			}
			if len(c.out) == 0 {
				// Drop the drained reply: an empty slice of it would
				// keep its bytes alive for as long as the connection.
				c.out = nil
			}
			if len(c.out) > 0 && !c.wantOut {
				c.wantOut = true
				p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlMod, uint64(fd), kernel.POLLIN|kernel.POLLOUT)
			} else if len(c.out) == 0 && c.wantOut {
				c.wantOut = false
				p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlMod, uint64(fd), kernel.POLLIN)
			}
			if len(c.out) == 0 && c.dead {
				closeConn(fd)
			}
		}

		// respond queues a reply and attempts an immediate send. Every
		// caller passes a slice it has just built, so an idle
		// connection takes it as its output buffer without a copy.
		respond := func(fd int, c *evConn, b []byte, thenClose bool) {
			if len(c.out) == 0 {
				c.out = b
			} else {
				c.out = append(c.out, b...)
			}
			if thenClose {
				c.dead = true
			}
			flush(fd, c)
		}

		// appendIO appends the first n bytes of ioBuf to b, copying them
		// from user memory straight into b's tail. n is a syscall's
		// return value, which the OS controls, so it is capped at the
		// buffer's length: no OS-reported size sizes a host buffer.
		appendIO := func(b []byte, n uint64) []byte {
			k := int(min(n, chunk))
			b = slices.Grow(b, k)[:len(b)+k]
			p.ReadInto(ioBuf, b[len(b)-k:])
			return b
		}

		serve := func(path string) []byte {
			pathPtr := p.PushString(path)
			ffd := p.Syscall(kernel.SysOpen, pathPtr, kernel.ORdOnly)
			if _, bad := kernel.IsErr(ffd); bad {
				return []byte("404\n")
			}
			statBuf := p.Alloc(16)
			p.Syscall(kernel.SysStat, pathPtr, statBuf)
			size := p.Load(statBuf, 8)
			resp := []byte(fmt.Sprintf("200 %d\n", size))
			for {
				n := p.Syscall(kernel.SysRead, ffd, ioBuf, chunk)
				if _, bad := kernel.IsErr(n); bad || n == 0 {
					break
				}
				resp = appendIO(resp, n)
			}
			p.Syscall(kernel.SysClose, ffd)
			return resp
		}

		handleLine := func(fd int, c *evConn, line string) {
			p.Compute(requestUserCycles)
			switch {
			case line == "QUIT":
				quit = true
			case strings.HasPrefix(line, "GET "):
				respond(fd, c, serve(strings.TrimPrefix(line, "GET ")), false)
			case strings.HasPrefix(line, "LOGIN "):
				user := strings.TrimPrefix(line, "LOGIN ")
				sessCtr++
				blob, err := vgcrypt.SealWithKeyAndCounter(sessKey, sessCtr, []byte("u="+user))
				if err != nil {
					respond(fd, c, []byte("400\n"), true)
					return
				}
				p.ComputeCrypt(uint64(len(blob)) * hw.CostCryptPerByte)
				respond(fd, c, []byte("210 "+hex.EncodeToString(blob)+"\n"), false)
			case strings.HasPrefix(line, "AUTH "):
				rest := strings.TrimPrefix(line, "AUTH ")
				tok, path, ok := strings.Cut(rest, " ")
				blob, err := hex.DecodeString(tok)
				if !ok || err != nil {
					respond(fd, c, []byte("400\n"), true)
					return
				}
				p.ComputeCrypt(uint64(len(blob)) * hw.CostCryptPerByte)
				plain, err := vgcrypt.Open(sessKey, blob)
				if err != nil || !strings.HasPrefix(string(plain), "u=") {
					respond(fd, c, []byte("403\n"), false)
					return
				}
				respond(fd, c, serve(path), false)
			default:
				respond(fd, c, []byte("400\n"), true)
			}
		}

		handleReadable := func(fd int, c *evConn) {
			ret := p.Syscall(kernel.SysRecv, uint64(fd), ioBuf, chunk)
			if e, bad := kernel.IsErr(ret); bad {
				if e != kernel.EAGAIN {
					closeConn(fd)
				}
				return
			}
			if ret == 0 { // peer FIN (or idle kill) with nothing buffered
				if len(c.out) == 0 {
					closeConn(fd)
				} else {
					c.dead = true
				}
				return
			}
			c.in = appendIO(c.in, ret)
			for !c.dead {
				nl := -1
				for i, b := range c.in {
					if b == '\n' {
						nl = i
						break
					}
				}
				if nl < 0 {
					if len(c.in) > cfg.MaxHeader {
						respond(fd, c, []byte("400\n"), true)
					}
					return
				}
				line := strings.TrimSpace(string(c.in[:nl]))
				c.in = c.in[nl+1:]
				handleLine(fd, c, line)
				if quit {
					return
				}
			}
		}

		for !quit {
			n := p.Syscall(kernel.SysPollWait, pfd, evBuf, maxEvents, 0)
			if _, bad := kernel.IsErr(n); bad {
				break
			}
			for i := 0; i < int(n); i++ {
				fd := int(p.Load(evBuf+uint64(i)*8, 4))
				ev := uint32(p.Load(evBuf+uint64(i)*8+4, 4))
				if fd == int(sfd) {
					for {
						cfd := p.Syscall(kernel.SysAccept, sfd)
						if _, bad := kernel.IsErr(cfd); bad {
							break
						}
						conns[int(cfd)] = &evConn{}
						p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlAdd, cfd, kernel.POLLIN)
					}
					continue
				}
				c, live := conns[fd]
				if !live {
					continue // closed earlier in this batch
				}
				if ev&kernel.POLLERR != 0 {
					closeConn(fd)
					continue
				}
				if ev&kernel.POLLOUT != 0 {
					flush(fd, c)
					if _, live := conns[fd]; !live {
						continue
					}
				}
				if ev&(kernel.POLLIN|kernel.POLLHUP) != 0 {
					handleReadable(fd, c)
				}
				if quit {
					break
				}
			}
		}
		// Drain: close every live connection in fd order, then the
		// listener and the poll set.
		fds := make([]int, 0, len(conns))
		for fd := range conns {
			fds = append(fds, fd)
		}
		sort.Ints(fds)
		for _, fd := range fds {
			closeConn(fd)
		}
		p.Syscall(kernel.SysClose, sfd)
		p.Syscall(kernel.SysClose, pfd)
		p.Exit(0)
	}
}

// --- blocking client helpers (functional tests; the C10K load
// generator in internal/experiments drives the same protocol through
// its own event loop) -----------------------------------------------------

// EventDial opens a blocking connection to the event server. A connect
// that races ahead of the server's listen draws ECONNREFUSED; like a
// real client it yields and retries (bounded), so callers spawned
// alongside the server on a multi-CPU machine still connect.
func EventDial(p *kernel.Proc, port uint16, remote bool) (uint64, bool) {
	host := uint64(kernel.LocalHost)
	if remote {
		host = kernel.RemoteHost
	}
	for attempt := 0; attempt < 64; attempt++ {
		fd := p.Syscall(kernel.SysSocket)
		ret := p.Syscall(kernel.SysConnect, fd, uint64(port), host)
		if ret == 0 {
			return fd, true
		}
		p.Syscall(kernel.SysClose, fd)
		if e, bad := kernel.IsErr(ret); !bad || e != kernel.ECONNREFUSED {
			return 0, false
		}
		p.Syscall(kernel.SysYield)
	}
	return 0, false
}

// EventRequest sends one request line and reads one reply (status line
// plus body for 200 replies). It assumes a blocking socket. A recv
// count above the buffer it was given is the OS lying, and fails the
// request like an error does; so does a body longer than the status
// line announced, since the server sends nothing past a reply until
// the next request.
func EventRequest(p *kernel.Proc, fd uint64, line string) (status string, body []byte, ok bool) {
	msg := p.PushString(line + "\n")
	if ret := p.Syscall(kernel.SysSendTo, fd, msg, uint64(len(line)+1)); ret != uint64(len(line)+1) {
		return "", nil, false
	}
	buf := p.Alloc(chunk)
	var acc []byte
	for {
		n := p.Syscall(kernel.SysRecv, fd, buf, chunk)
		if _, bad := kernel.IsErr(n); bad || n == 0 || n > chunk {
			return "", nil, false
		}
		acc = append(acc, p.Read(buf, int(n))...)
		nl := strings.IndexByte(string(acc), '\n')
		if nl < 0 {
			continue
		}
		status = strings.TrimSpace(string(acc[:nl]))
		rest := acc[nl+1:]
		if !strings.HasPrefix(status, "200 ") {
			return status, nil, true
		}
		var want uint64
		fmt.Sscanf(status, "200 %d", &want)
		for uint64(len(rest)) < want {
			n := p.Syscall(kernel.SysRecv, fd, buf, chunk)
			if _, bad := kernel.IsErr(n); bad || n == 0 || n > chunk {
				return status, rest, false
			}
			rest = append(rest, p.Read(buf, int(n))...)
		}
		return status, rest, uint64(len(rest)) == want
	}
}

// StopEventServer connects and sends QUIT.
func StopEventServer(p *kernel.Proc, port uint16, remote bool) {
	fd, ok := EventDial(p, port, remote)
	if !ok {
		return
	}
	quit := p.PushString("QUIT\n")
	p.Syscall(kernel.SysSendTo, fd, quit, 5)
	p.Syscall(kernel.SysClose, fd)
}
