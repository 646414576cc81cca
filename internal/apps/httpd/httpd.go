// Package httpd is the thttpd-like static web server and the
// ApacheBench-like load generator of the paper's Figure 2 experiment:
// files of 1 KB–1 MB served over the simulated gigabit link, bandwidth
// reported per file size.
//
// The server is a standard, non-ghosting application (as in the paper:
// "a statically linked, non-ghosting version of the thttpd web
// server"); the experiment measures how the kernel configuration alone
// affects network service throughput.
package httpd

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kernel"
)

// Port is the server's listening port.
const Port = 80

// chunk is the server's send unit.
const chunk = 32 * 1024

// requestUserCycles is thttpd's per-request user-space work (HTTP
// parsing, logging, response headers) — ~74 µs at 3.4 GHz, putting the
// native 1 KB request rate near the paper's ~8 MB/s.
const requestUserCycles = 250_000

// ServerMain runs the web server inside a process: accept, parse a
// one-line request, stream the file, close. A request line of "QUIT"
// shuts the server down (the harness's replacement for SIGTERM).
func ServerMain(p *kernel.Proc) {
	sfd := p.Syscall(kernel.SysSocket)
	if ret := p.Syscall(kernel.SysBind, sfd, Port); ret != 0 {
		p.Exit(1)
	}
	p.Syscall(kernel.SysListen, sfd)
	reqBuf := p.Alloc(256)
	for {
		cfd := p.Syscall(kernel.SysAccept, sfd)
		if _, bad := kernel.IsErr(cfd); bad {
			p.Exit(1)
		}
		n := p.Syscall(kernel.SysRecv, cfd, reqBuf, 256)
		// Request parsing, logging, and header formatting are
		// application CPU, identical on every kernel configuration.
		p.Compute(requestUserCycles)
		if n > 256 {
			// An errno (above any length, read as unsigned) or a count
			// above the buffer: drop the connection.
			p.Syscall(kernel.SysClose, cfd)
			continue
		}
		req := strings.TrimSpace(string(p.Read(reqBuf, int(n))))
		if req == "QUIT" {
			p.Syscall(kernel.SysClose, cfd)
			break
		}
		path := strings.TrimPrefix(req, "GET ")
		serveFile(p, cfd, path)
		p.Syscall(kernel.SysClose, cfd)
	}
	p.Exit(0)
}

// serveFile streams a file (or a 404 header) to the connection.
func serveFile(p *kernel.Proc, cfd uint64, path string) {
	pathPtr := p.PushString(path)
	fd := p.Syscall(kernel.SysOpen, pathPtr, kernel.ORdOnly)
	if _, bad := kernel.IsErr(fd); bad {
		hdr := p.PushString("404\n")
		p.Syscall(kernel.SysSendTo, cfd, hdr, 4)
		return
	}
	// stat for the Content-Length header.
	statBuf := p.Alloc(16)
	p.Syscall(kernel.SysStat, pathPtr, statBuf)
	size := p.Load(statBuf, 8)
	hdr := p.PushString(fmt.Sprintf("200 %d\n", size))
	p.Syscall(kernel.SysSendTo, cfd, hdr, uint64(len(fmt.Sprintf("200 %d\n", size))))
	buf := p.Alloc(chunk)
	for {
		n := p.Syscall(kernel.SysRead, fd, buf, chunk)
		if _, bad := kernel.IsErr(n); bad || n == 0 {
			break
		}
		p.Syscall(kernel.SysSendTo, cfd, buf, n)
	}
	p.Syscall(kernel.SysClose, fd)
}

// BenchResult is one load-generator measurement.
type BenchResult struct {
	FileSize int
	Requests int
	Bytes    uint64
	Seconds  float64
	KBPerSec float64
	Failures int
}

// ClientMain runs an ApacheBench-style load generator: `requests`
// sequential fetches of path, measuring total goodput. (Concurrency in
// the paper's ab run keeps the link saturated; in the serialized
// simulation sequential fetches measure the same per-byte path.)
func ClientMain(p *kernel.Proc, path string, requests int, out *BenchResult) {
	buf := p.Alloc(chunk)
	req := p.PushString("GET " + path)
	start := p.Kernel().M.Clock.Cycles()
	for i := 0; i < requests; i++ {
		fd := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, fd, Port, kernel.RemoteHost)
		p.Syscall(kernel.SysSendTo, fd, req, uint64(len("GET "+path)))
		// Read the header line then the body until EOF.
		n := p.Syscall(kernel.SysRecv, fd, buf, chunk)
		if _, bad := kernel.IsErr(n); bad || n == 0 || n > chunk {
			out.Failures++
			p.Syscall(kernel.SysClose, fd)
			continue
		}
		first := p.Read(buf, int(n))
		body, want, okHdr := parseHeader(first)
		if !okHdr {
			out.Failures++
			p.Syscall(kernel.SysClose, fd)
			continue
		}
		got := uint64(len(body))
		for got < want {
			n := p.Syscall(kernel.SysRecv, fd, buf, chunk)
			if _, bad := kernel.IsErr(n); bad || n == 0 {
				break
			}
			got += n
		}
		if got < want {
			out.Failures++
		}
		out.Bytes += got
		p.Syscall(kernel.SysClose, fd)
	}
	cycles := p.Kernel().M.Clock.Cycles() - start
	out.Requests = requests
	out.Seconds = float64(cycles) / 3.4e9
	if out.Seconds > 0 {
		out.KBPerSec = float64(out.Bytes) / 1024 / out.Seconds
	}
}

// parseHeader splits "200 <len>\n<body...>" and returns the body bytes
// in this first packet, the advertised length, and whether the response
// was a success.
func parseHeader(b []byte) (body []byte, want uint64, ok bool) {
	s := string(b)
	nl := strings.IndexByte(s, '\n')
	if nl < 0 {
		return nil, 0, false
	}
	fields := strings.Fields(s[:nl])
	if len(fields) != 2 || fields[0] != "200" {
		return nil, 0, false
	}
	n, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return nil, 0, false
	}
	return b[nl+1:], n, true
}

// StopServer sends the QUIT request from a client process.
func StopServer(p *kernel.Proc) {
	fd := p.Syscall(kernel.SysSocket)
	p.Syscall(kernel.SysConnect, fd, Port, kernel.RemoteHost)
	quit := p.PushString("QUIT")
	p.Syscall(kernel.SysSendTo, fd, quit, 4)
	p.Syscall(kernel.SysClose, fd)
}
