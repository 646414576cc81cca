package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro"
	"repro/internal/apps/httpd"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// This file is the C10K experiment (DESIGN.md §19): the event-driven
// ghost web server holding >=10k concurrent connections from one
// process, driven by a single event-loop load generator on a second
// machine. The generator ramps every connection up nonblocking before
// the first request, so the peak-concurrency number is a real
// all-open-at-once measurement, then runs a mixed workload: keep-alive
// GETs over three response sizes, churn connections that reconnect per
// request, sealed LOGIN/AUTH sessions, plus slowloris and
// oversized-header adversaries the server must shed (idle-timeout
// kills and 400-and-close respectively). Per-request virtual latency
// is sampled request-send to response-complete on the shared clock.

// C10KResult is one server configuration's outcome.
type C10KResult struct {
	PeakConns int // connections simultaneously established
	Requests  int // completed application requests
	Failures  int // wrong status, transport error, or lost reply
	// Adversary outcomes: every slowloris conn must be idle-killed,
	// every oversized-header conn must get 400-and-close.
	IdleKilled  int
	Rejected400 int
	VirtualSecs float64 // first request send -> last regular response
	RPS         float64 // Requests / VirtualSecs
	// Virtual latency percentiles over per-request samples, µs.
	P50us, P95us, P99us float64
	NetStats            kernel.NetStats // server-side drop/kill counters
	Ledger              hw.Ledger       // cycle attribution of the whole run
}

// C10KCompare pairs the native and Virtual Ghost server runs.
type C10KCompare struct {
	Conns      int
	Native, VG C10KResult
}

// C10K runs the experiment against a native and a Virtual Ghost server
// kernel (the load generator always runs a native kernel, like the
// paper's client machine).
func C10K(sc Scale) C10KCompare {
	return C10KCompare{
		Conns:  sc.C10KConns,
		Native: c10kRun(repro.Native, sc),
		VG:     c10kRun(repro.VirtualGhost, sc),
	}
}

// c10kFiles is the response-size mix (small API reply, medium page,
// large asset).
var c10kFiles = []struct {
	path string
	size int
}{
	{"/s.bin", 200},
	{"/m.bin", 4 << 10},
	{"/l.bin", 24 << 10},
}

// Connection cohorts, assigned by connection index.
const (
	connKeepAlive = iota // sequential GETs on one connection
	connChurn            // reconnect for every request
	connSession          // LOGIN once, then AUTH GETs
	connSlowloris        // partial request, then silence
	connOversize         // huge header, no newline
)

func c10kKind(i int) int {
	switch {
	case i%50 == 7:
		return connSlowloris
	case i%100 == 13:
		return connOversize
	case i%10 == 3:
		return connChurn
	case i%10 == 5:
		return connSession
	default:
		return connKeepAlive
	}
}

// cliConn is the load generator's per-connection state machine.
type cliConn struct {
	idx     int
	kind    int
	file    string
	est     bool // connect completed (first POLLOUT seen)
	reqLeft int
	token   string // sealed session token (connSession)
	start   uint64 // cycles at request send
	acc     []byte // unparsed reply bytes
	status  string // parsed status line, "" while waiting
	want    int    // body bytes still expected
}

const (
	c10kBatch = 512 // connects in flight during the ramp
	// c10kIdleTimeout must outlive every legitimate connection's
	// longest quiet gap (which can span the whole ramp), while still
	// reaping slowloris connections once the regular load drains — the
	// reap costs O(1) host time regardless of the value, because the
	// idle clock skips straight to the next timer expiry.
	c10kIdleTimeout = 100_000_000_000 // ~29 s virtual
	c10kMaxHeader   = 256
	c10kMaxEvents   = 256
	c10kChunk       = 32 << 10
)

func c10kRun(serverMode repro.Mode, sc Scale) C10KResult {
	nConns, nReqs := sc.C10KConns, sc.C10KRequests
	if nConns == 0 || nReqs == 0 {
		panic("experiments: C10K scale not set")
	}
	server, client, world, err := repro.NewNetworkedPair(serverMode, repro.Native)
	if err != nil {
		panic(err)
	}
	for _, f := range c10kFiles {
		seedFile(server.Kernel, f.path, f.size)
	}

	cfg := httpd.EventServerConfig{
		Port:              httpd.EventPort,
		Backlog:           2 * c10kBatch,
		IdleTimeoutCycles: c10kIdleTimeout,
		MaxHeader:         c10kMaxHeader,
	}
	if serverMode == repro.VirtualGhost {
		// The ghosting path: the session key comes from sva.getKey, so
		// the server must start through the trusted loader.
		if _, err := server.Kernel.InstallTrustedProgram("/bin/eventd", nil, httpd.EventServerMain(cfg)); err != nil {
			panic(err)
		}
		if _, err := server.Kernel.SpawnProgram("/bin/eventd"); err != nil {
			panic(err)
		}
	} else {
		key := make([]byte, 32)
		server.Machine.RNG.Fill(key)
		cfg.AppKey = key
		if _, err := server.Kernel.Spawn("eventd", httpd.EventServerMain(cfg)); err != nil {
			panic(err)
		}
	}

	clock := server.Machine.Clock
	preLedger := clock.Ledger()
	var res C10KResult
	var latencies []uint64
	done := false

	if _, err := client.Kernel.Spawn("c10k", func(p *kernel.Proc) {
		defer func() { done = true }()
		pfd := p.Syscall(kernel.SysPollCreate)
		evBuf := p.Alloc(c10kMaxEvents * 8)
		ioBuf := p.Alloc(c10kChunk)
		reqBuf := p.Alloc(c10kMaxHeader + 256)
		junk := strings.Repeat("x", c10kMaxHeader+64) // no newline: must trip MaxHeader

		conns := make(map[int]*cliConn)
		established := 0 // conns past connect completion, not yet closed
		started := 0     // connects issued
		settled := 0     // connects resolved (established or failed)
		ramping := true
		regularLive := 0 // non-adversary conns still working
		var firstSend, endCycles uint64

		regularDone := func(c *cliConn) {
			if c.kind == connSlowloris || c.kind == connOversize {
				return
			}
			regularLive--
			if regularLive == 0 {
				endCycles = clock.Cycles()
			}
		}
		closeConn := func(fd int, c *cliConn) {
			p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlDel, uint64(fd))
			p.Syscall(kernel.SysClose, uint64(fd))
			delete(conns, fd)
			if c.est {
				established--
			}
		}
		dial := func(c *cliConn) bool {
			fd := p.Syscall(kernel.SysSocket)
			if _, bad := kernel.IsErr(fd); bad {
				return false
			}
			p.Syscall(kernel.SysNonblock, fd, 1)
			if ret := p.Syscall(kernel.SysConnect, fd, httpd.EventPort, kernel.RemoteHost); ret != 0 {
				p.Syscall(kernel.SysClose, fd)
				return false
			}
			c.est = false
			conns[int(fd)] = c
			// POLLOUT = connect completion.
			p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlAdd, fd, kernel.POLLOUT)
			return true
		}
		sendLine := func(fd int, line string) bool {
			p.Write(reqBuf, []byte(line+"\n"))
			ret := p.Syscall(kernel.SysSendTo, uint64(fd), reqBuf, uint64(len(line)+1))
			return ret == uint64(len(line)+1)
		}
		// nextRequest issues c's next protocol step and stamps the
		// latency clock.
		nextRequest := func(fd int, c *cliConn) {
			var line string
			switch {
			case c.kind == connSession && c.token == "":
				line = fmt.Sprintf("LOGIN user%d", c.idx)
			case c.kind == connSession:
				line = "AUTH " + c.token + " " + c.file
			default:
				line = "GET " + c.file
			}
			c.start = clock.Cycles()
			if firstSend == 0 {
				firstSend = c.start
			}
			c.status, c.want = "", 0
			c.acc = c.acc[:0]
			if !sendLine(fd, line) {
				res.Failures++
				regularDone(c)
				closeConn(fd, c)
			}
		}
		// kickOff fires a connection's post-establishment action
		// (called at ramp end, and immediately for churn reconnects).
		kickOff := func(fd int, c *cliConn) {
			switch c.kind {
			case connSlowloris:
				p.Write(reqBuf, []byte("GE"))
				p.Syscall(kernel.SysSendTo, uint64(fd), reqBuf, 2)
			case connOversize:
				p.Write(reqBuf, []byte(junk))
				p.Syscall(kernel.SysSendTo, uint64(fd), reqBuf, uint64(len(junk)))
			default:
				nextRequest(fd, c)
			}
		}
		// finish consumes one complete reply on c.
		finish := func(fd int, c *cliConn) {
			latencies = append(latencies, clock.Cycles()-c.start)
			switch {
			case strings.HasPrefix(c.status, "200 "):
				res.Requests++
			case strings.HasPrefix(c.status, "210 "):
				res.Requests++
				c.token = strings.TrimPrefix(c.status, "210 ")
			default:
				res.Failures++
			}
			c.reqLeft--
			if c.reqLeft == 0 {
				regularDone(c)
				closeConn(fd, c)
				return
			}
			if c.kind == connChurn {
				// Fresh connection per request: exercises port reuse and
				// the accept path under steady churn.
				closeConn(fd, c)
				if !dial(c) {
					res.Failures++
					regularDone(c)
				}
				return
			}
			nextRequest(fd, c)
		}
		onReadable := func(fd int, c *cliConn) {
			for {
				ret := p.Syscall(kernel.SysRecv, uint64(fd), ioBuf, c10kChunk)
				if e, bad := kernel.IsErr(ret); bad {
					if e != kernel.EAGAIN {
						res.Failures++
						regularDone(c)
						closeConn(fd, c)
					}
					return
				}
				if ret == 0 { // EOF
					switch c.kind {
					case connSlowloris:
						res.IdleKilled++
					case connOversize:
						if strings.HasPrefix(string(c.acc), "400") {
							res.Rejected400++
						} else {
							res.Failures++
						}
					default:
						if c.reqLeft > 0 {
							res.Failures++ // server hung up mid-workload
						}
						regularDone(c)
					}
					closeConn(fd, c)
					return
				}
				c.acc = append(c.acc, p.Read(ioBuf, int(ret))...)
				if c.kind == connSlowloris || c.kind == connOversize {
					continue // adversaries only wait for the close
				}
				for {
					if c.status == "" {
						nl := strings.IndexByte(string(c.acc), '\n')
						if nl < 0 {
							break
						}
						c.status = strings.TrimSpace(string(c.acc[:nl]))
						c.acc = c.acc[nl+1:]
						c.want = 0
						if strings.HasPrefix(c.status, "200 ") {
							fmt.Sscanf(c.status, "200 %d", &c.want)
						}
					}
					if len(c.acc) < c.want {
						break
					}
					c.acc = c.acc[c.want:]
					finish(fd, c)
					if _, live := conns[fd]; !live {
						return
					}
				}
			}
		}

		for {
			// Keep the ramp's connect window full.
			for started < nConns && started-settled < c10kBatch {
				c := &cliConn{idx: started, kind: c10kKind(started), reqLeft: nReqs}
				c.file = c10kFiles[started%len(c10kFiles)].path
				if c.kind != connSlowloris && c.kind != connOversize {
					regularLive++
				}
				started++
				if !dial(c) {
					res.Failures++
					settled++
					regularDone(c)
				}
			}
			if len(conns) == 0 && started == nConns {
				break
			}
			n := p.Syscall(kernel.SysPollWait, pfd, evBuf, c10kMaxEvents, 0)
			if _, bad := kernel.IsErr(n); bad {
				break
			}
			for i := 0; i < int(n); i++ {
				fd := int(p.Load(evBuf+uint64(i)*8, 4))
				ev := uint32(p.Load(evBuf+uint64(i)*8+4, 4))
				c, live := conns[fd]
				if !live {
					continue
				}
				if ev&kernel.POLLERR != 0 {
					res.Failures++
					settled++
					regularDone(c)
					closeConn(fd, c)
					continue
				}
				if !c.est && ev&kernel.POLLOUT != 0 {
					c.est = true
					established++
					if established > res.PeakConns {
						res.PeakConns = established
					}
					p.Syscall(kernel.SysPollCtl, pfd, kernel.PollCtlMod, uint64(fd), kernel.POLLIN)
					if ramping {
						settled++
						if settled == nConns {
							// Everything is up at once: kick every
							// connection's workload off in fd order.
							ramping = false
							fds := make([]int, 0, len(conns))
							for cfd := range conns {
								fds = append(fds, cfd)
							}
							sort.Ints(fds)
							for _, cfd := range fds {
								kickOff(cfd, conns[cfd])
							}
						}
					} else {
						kickOff(fd, c) // churn reconnect mid-run
					}
					continue
				}
				if ev&(kernel.POLLIN|kernel.POLLHUP) != 0 {
					onReadable(fd, c)
				}
			}
		}
		p.Syscall(kernel.SysClose, pfd)
		httpd.StopEventServer(p, httpd.EventPort, true)
		if endCycles > firstSend && firstSend > 0 {
			res.VirtualSecs = float64(endCycles-firstSend) / hw.Frequency
		}
	}); err != nil {
		panic(err)
	}

	if !world.Run(func() bool { return done }) {
		panic("experiments: c10k deadlocked")
	}
	res.NetStats = server.Kernel.Net.Stats()
	res.Ledger = clock.Ledger().Sub(preLedger)
	if res.VirtualSecs > 0 {
		res.RPS = float64(res.Requests) / res.VirtualSecs
	}
	res.P50us, res.P95us, res.P99us = percentilesUs(latencies)
	if res.PeakConns < nConns {
		panic(fmt.Sprintf("experiments: c10k peak %d < target %d", res.PeakConns, nConns))
	}
	return res
}

// percentilesUs converts cycle samples to sorted µs percentiles.
func percentilesUs(samples []uint64) (p50, p95, p99 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(s)-1))
		return float64(s[i]) / hw.Frequency * 1e6
	}
	return at(0.50), at(0.95), at(0.99)
}

// FormatC10K renders the comparison as a Markdown table, then the
// throughput ratio and the server-side drop counters.
func FormatC10K(c C10KCompare) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "C10K. Event-driven ghost web service, %d concurrent connections\n\n", c.Conns)
	sb.WriteString("| Server | peak | requests | failures | req/s | p50 µs | p95 µs | p99 µs | idle | 400s |\n" +
		"|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	row := func(name string, r C10KResult) {
		fmt.Fprintf(&sb, "| %s | %d | %d | %d | %.0f | %.1f | %.1f | %.1f | %d | %d |\n",
			name, r.PeakConns, r.Requests, r.Failures, r.RPS,
			r.P50us, r.P95us, r.P99us, r.IdleKilled, r.Rejected400)
	}
	row("native", c.Native)
	row("vghost", c.VG)
	if c.Native.RPS > 0 {
		fmt.Fprintf(&sb, "\nthroughput ratio (vghost/native): %.2fx\n", c.VG.RPS/c.Native.RPS)
	}
	fmt.Fprintf(&sb, "\nserver drops: native syn=%d idle-kills=%d late-data=%d; vghost syn=%d idle-kills=%d late-data=%d\n",
		c.Native.NetStats.SynDrops, c.Native.NetStats.TimeoutKills, c.Native.NetStats.LateDataDrops,
		c.VG.NetStats.SynDrops, c.VG.NetStats.TimeoutKills, c.VG.NetStats.LateDataDrops)
	return sb.String()
}
