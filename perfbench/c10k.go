package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/apps/httpd"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// The c10k workload: the event-driven web server (httpd.EventServerMain)
// on a native and on a Virtual Ghost server kernel, each linked to a
// native client kernel on a shared clock. The benchmark's own
// single-process nonblocking load generator opens every connection at
// once, then runs keep-alive, churn, sealed-session, slowloris and
// oversize cohorts over three file sizes. It is a closed loop: each
// connection sends its next request only after the previous reply.

const (
	c10kConns       = 10000
	c10kRequests    = 2   // requests per regular connection
	c10kBatch       = 512 // connects in flight during the ramp
	c10kIdleTimeout = 100_000_000_000
	c10kMaxHeader   = 256
	c10kMaxEvents   = 256
	c10kChunk       = 32 << 10
)

// Connection cohorts.
const (
	cohortKeepAlive = iota // sequential GETs on one connection
	cohortChurn            // reconnect for every request
	cohortSession          // LOGIN once, then AUTH GETs
	cohortSlowloris        // partial request, then silence
	cohortOversize         // huge header, no newline
	numCohorts
)

// c10kShare gives each cohort's share of the connections per 100, the
// same proportions as the repository's C10K experiment.
var c10kShare = [numCohorts]int{78, 9, 10, 2, 1}

// c10kFileSizes is the response-size mix: small reply, page, asset.
var c10kFileSizes = []int{200, 4 << 10, 24 << 10}

func c10kPath(file int) string { return "/f" + strconv.Itoa(file) + ".bin" }

// connPlan is one connection's seeded role.
type connPlan struct {
	cohort, file int
}

// c10kPlan assigns n connections to cohorts in the fixed proportions
// and to files round-robin within each cohort, then shuffles the
// connection order with the seed. Every seed gets the same counts and
// the same bytes to serve; only which connection does what, and when,
// changes.
func c10kPlan(seed uint64, n int) []connPlan {
	plan := make([]connPlan, 0, n)
	for c := 0; c < numCohorts; c++ {
		count := n * c10kShare[c] / 100
		if c == cohortKeepAlive {
			count = n
			for o := 1; o < numCohorts; o++ {
				count -= n * c10kShare[o] / 100
			}
		}
		for i := 0; i < count; i++ {
			plan = append(plan, connPlan{cohort: c, file: i % len(c10kFileSizes)})
		}
	}
	rng := newRNG(seed)
	for i := len(plan) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		plan[i], plan[j] = plan[j], plan[i]
	}
	return plan
}

// c10kExpect is what the output checks require of one server run.
type c10kExpect struct {
	requests, idleKilled, rejected int
}

func expectFor(plan []connPlan) c10kExpect {
	var e c10kExpect
	for _, c := range plan {
		switch c.cohort {
		case cohortSlowloris:
			e.idleKilled++
		case cohortOversize:
			e.rejected++
		default:
			e.requests += c10kRequests
		}
	}
	return e
}

// c10kOutcome is one server configuration's result.
type c10kOutcome struct {
	peak, requests, failures, idleKilled, rejected int
	firstSend, lastReply                           uint64
	ledger                                         hw.Ledger
	finished                                       bool
}

type c10kInputs struct {
	plan  []connPlan
	files [][]byte
	key   []byte // native server's session key; VG fetches its own
	vgKey []byte // application key the trusted installer signs in
	seed  uint64
}

func c10kWorkload(seed uint64) setupFunc {
	rng := newRNG(seed ^ 0xc10c)
	in := &c10kInputs{plan: c10kPlan(seed, c10kConns), seed: seed}
	for _, size := range c10kFileSizes {
		in.files = append(in.files, rng.bytes(size))
	}
	in.key, in.vgKey = rng.bytes(32), rng.bytes(32)
	return func(tr *tracer) (instance, error) {
		inst := &c10kInstance{in: in, tr: tr}
		for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost} {
			side, err := in.setupSide(tr, mode)
			if err != nil {
				return nil, err
			}
			inst.sides = append(inst.sides, side)
		}
		return inst, nil
	}
}

// c10kSide is one server configuration with its client machine.
type c10kSide struct {
	mode           repro.Mode
	server, client *repro.System
	world          *kernel.World
	out            c10kOutcome
}

func (in *c10kInputs) setupSide(tr *tracer, mode repro.Mode) (*c10kSide, error) {
	server, err := boot(tr, mode, in.seed, nil)
	if err != nil {
		return nil, err
	}
	client, err := boot(tr, repro.Native, in.seed+1, server.Machine.Clock)
	if err != nil {
		return nil, err
	}
	hw.Connect(server.Machine.NIC, client.Machine.NIC)
	k := server.Kernel
	var seedErr error
	tr.within(kindSeed, func() {
		for i, data := range in.files {
			if !k.WriteKernelFile(c10kPath(i), data) {
				seedErr = fmt.Errorf("c10k: writing %s failed", c10kPath(i))
				return
			}
		}
		cfg := httpd.EventServerConfig{
			Port:              httpd.EventPort,
			Backlog:           2 * c10kBatch,
			IdleTimeoutCycles: c10kIdleTimeout,
			MaxHeader:         c10kMaxHeader,
		}
		if mode == repro.VirtualGhost {
			// The ghosting path: the server's session key comes from
			// sva.getKey, so it must start through the trusted loader.
			if _, err := k.InstallTrustedProgram("/bin/eventd", in.vgKey, httpd.EventServerMain(cfg)); err != nil {
				seedErr = err
				return
			}
			_, seedErr = k.Spawn("launch", func(p *kernel.Proc) {
				_ = p.Exec("/bin/eventd")
				p.Exit(1)
			})
		} else {
			cfg.AppKey = in.key
			_, seedErr = k.Spawn("eventd", httpd.EventServerMain(cfg))
		}
		if seedErr == nil {
			// Warm-up: the server runs until it waits on its poll set.
			k.RunUntilIdle()
		}
	})
	if seedErr != nil {
		return nil, seedErr
	}
	return &c10kSide{
		mode: mode, server: server, client: client,
		world: &kernel.World{Kernels: []*kernel.Kernel{server.Kernel, client.Kernel}},
	}, nil
}

type c10kInstance struct {
	in    *c10kInputs
	tr    *tracer
	sides []*c10kSide
}

func (c *c10kInstance) run() {
	for _, s := range c.sides {
		clock := s.server.Machine.Clock
		pre := clock.Ledger()
		g := &generator{in: c.in, tr: c.tr, clock: clock, out: &s.out}
		if _, err := s.client.Kernel.Spawn("c10k", g.main); err != nil {
			s.out.failures++
			continue
		}
		// Run to quiescence: the load, then the server's QUIT drain, so
		// no process goroutine outlives the round.
		c.tr.within(kindRun, func() { s.world.Run(func() bool { return false }) })
		s.out.ledger = clock.Ledger().Sub(pre)
	}
}

func (c *c10kInstance) check() roundResult {
	want := expectFor(c.in.plan)
	res := roundResult{ledgers: map[string]hw.Ledger{}}
	var rps [2]float64
	for i, s := range c.sides {
		o := s.out
		name := modeName(s.mode)
		res.ledgers[name] = o.ledger
		res.ops += want.requests + want.idleKilled + want.rejected
		// A failed request is also a missing outcome; count it once.
		failed := max(o.failures, missing(want.requests, o.requests)+
			missing(want.idleKilled, o.idleKilled)+missing(want.rejected, o.rejected))
		if !o.finished {
			res.problem("%s: the load generator did not finish (deadlock)", name)
		}
		if o.peak != c10kConns {
			res.problem("%s: peak concurrent connections %d, want %d", name, o.peak, c10kConns)
		}
		if failed > 0 {
			res.problem("%s: %d failed (%d/%d requests, %d/%d idle-killed, %d/%d rejected, %d errors)",
				name, failed, o.requests, want.requests, o.idleKilled, want.idleKilled,
				o.rejected, want.rejected, o.failures)
		}
		res.failed += failed
		if o.lastReply > o.firstSend {
			rps[i] = float64(o.requests) / hw.Seconds(o.lastReply-o.firstSend)
		}
	}
	if rps[0] > 0 && rps[1] > 0 {
		res.overhead = rps[0] / rps[1]
	} else {
		res.problem("no throughput measured")
	}
	return res
}

// discard stops the servers of a set-up round that will not run.
func (c *c10kInstance) discard() {
	for _, s := range c.sides {
		if _, err := s.client.Kernel.Spawn("stop", func(p *kernel.Proc) {
			httpd.StopEventServer(p, httpd.EventPort, true)
		}); err == nil {
			s.world.Run(func() bool { return false })
		}
	}
}

func missing(want, got int) int {
	if got < want {
		return want - got
	}
	return 0
}

// generator is the load generator's process: one event loop over every
// connection. In traced rounds each stretch of its own code between two
// calls into the program is a bench.client span.
type generator struct {
	in    *c10kInputs
	tr    *tracer
	clock *hw.Clock
	out   *c10kOutcome
	p     *kernel.Proc
	seg   int32 // open bench.client span
}

// genConn is one connection's state machine.
type genConn struct {
	plan    connPlan
	idx     int
	est     bool // connect completed (first POLLOUT seen)
	reqLeft int
	token   string // sealed session token
	acc     []byte // unparsed reply bytes
	status  string // parsed status line, "" while waiting
	want    int    // body bytes still expected
}

// Calls into the program close the current client span and open the
// next one when they return.
func (g *generator) sys(num uint64, args ...uint64) uint64 {
	g.tr.end(g.seg)
	ret := g.p.Syscall(num, args...)
	g.seg = g.tr.begin(kindClient, g.p.PID, 0)
	return ret
}

func (g *generator) write(va uint64, b []byte) {
	g.tr.end(g.seg)
	g.p.Write(va, b)
	g.seg = g.tr.begin(kindClient, g.p.PID, 0)
}

func (g *generator) read(va uint64, n int) []byte {
	g.tr.end(g.seg)
	b := g.p.Read(va, n)
	g.seg = g.tr.begin(kindClient, g.p.PID, 0)
	return b
}

func (g *generator) main(p *kernel.Proc) {
	g.p = p
	g.seg = g.tr.begin(kindClient, p.PID, 0)
	defer func() {
		g.tr.end(g.seg)
		g.seg = -1
	}()
	out := g.out
	plan := g.in.plan
	pfd := g.sys(kernel.SysPollCreate)
	evBuf := p.Alloc(c10kMaxEvents * 8)
	ioBuf := p.Alloc(c10kChunk)
	reqBuf := p.Alloc(c10kMaxHeader + 256)
	junk := []byte(strings.Repeat("x", c10kMaxHeader+64)) // no newline: must trip MaxHeader

	conns := make(map[int]*genConn)
	established, started, settled := 0, 0, 0
	ramping := true
	regularLive := 0

	regular := func(c *genConn) bool {
		return c.plan.cohort != cohortSlowloris && c.plan.cohort != cohortOversize
	}
	regularDone := func(c *genConn) {
		if !regular(c) {
			return
		}
		regularLive--
		if regularLive == 0 {
			out.lastReply = g.clock.Cycles()
		}
	}
	closeConn := func(fd int, c *genConn) {
		g.sys(kernel.SysPollCtl, pfd, kernel.PollCtlDel, uint64(fd))
		g.sys(kernel.SysClose, uint64(fd))
		delete(conns, fd)
		if c.est {
			established--
		}
	}
	dial := func(c *genConn) bool {
		fd := g.sys(kernel.SysSocket)
		if _, bad := kernel.IsErr(fd); bad {
			return false
		}
		g.sys(kernel.SysNonblock, fd, 1)
		if ret := g.sys(kernel.SysConnect, fd, httpd.EventPort, kernel.RemoteHost); ret != 0 {
			g.sys(kernel.SysClose, fd)
			return false
		}
		c.est = false
		conns[int(fd)] = c
		g.sys(kernel.SysPollCtl, pfd, kernel.PollCtlAdd, fd, kernel.POLLOUT) // POLLOUT = connected
		return true
	}
	send := func(fd int, b []byte) bool {
		g.write(reqBuf, b)
		return g.sys(kernel.SysSendTo, uint64(fd), reqBuf, uint64(len(b))) == uint64(len(b))
	}
	nextRequest := func(fd int, c *genConn) {
		path := c10kPath(c.plan.file)
		var line string
		switch {
		case c.plan.cohort == cohortSession && c.token == "":
			line = "LOGIN user" + strconv.Itoa(c.idx)
		case c.plan.cohort == cohortSession:
			line = "AUTH " + c.token + " " + path
		default:
			line = "GET " + path
		}
		if out.firstSend == 0 {
			out.firstSend = g.clock.Cycles()
		}
		c.status, c.want, c.acc = "", 0, c.acc[:0]
		if !send(fd, []byte(line+"\n")) {
			out.failures++
			regularDone(c)
			closeConn(fd, c)
		}
	}
	kickOff := func(fd int, c *genConn) {
		switch c.plan.cohort {
		case cohortSlowloris:
			send(fd, []byte("GE"))
		case cohortOversize:
			send(fd, junk)
		default:
			nextRequest(fd, c)
		}
	}
	// finish consumes one complete reply and checks it: a 210 carries a
	// session token, a 200 carries exactly the seeded file's bytes.
	finish := func(fd int, c *genConn, body []byte) {
		switch {
		case strings.HasPrefix(c.status, "210 ") && c.plan.cohort == cohortSession && c.token == "":
			out.requests++
			c.token = strings.TrimPrefix(c.status, "210 ")
		case strings.HasPrefix(c.status, "200 ") && bytes.Equal(body, g.in.files[c.plan.file]):
			out.requests++
		default:
			out.failures++
		}
		c.reqLeft--
		if c.reqLeft == 0 {
			regularDone(c)
			closeConn(fd, c)
			return
		}
		if c.plan.cohort == cohortChurn {
			closeConn(fd, c)
			if !dial(c) {
				out.failures++
				regularDone(c)
			}
			return
		}
		nextRequest(fd, c)
	}
	onReadable := func(fd int, c *genConn) {
		for {
			ret := g.sys(kernel.SysRecv, uint64(fd), ioBuf, c10kChunk)
			if e, bad := kernel.IsErr(ret); bad {
				if e != kernel.EAGAIN {
					out.failures++
					regularDone(c)
					closeConn(fd, c)
				}
				return
			}
			if ret == 0 { // EOF
				switch c.plan.cohort {
				case cohortSlowloris:
					out.idleKilled++
				case cohortOversize:
					if bytes.HasPrefix(c.acc, []byte("400\n")) {
						out.rejected++
					} else {
						out.failures++
					}
				default:
					if c.reqLeft > 0 {
						out.failures++ // server hung up mid-workload
					}
					regularDone(c)
				}
				closeConn(fd, c)
				return
			}
			c.acc = append(c.acc, g.read(ioBuf, int(ret))...)
			if !regular(c) {
				continue // adversaries only wait for the close
			}
			for {
				if c.status == "" {
					nl := bytes.IndexByte(c.acc, '\n')
					if nl < 0 {
						break
					}
					c.status = string(bytes.TrimSpace(c.acc[:nl]))
					c.acc = c.acc[nl+1:]
					c.want = 0
					if n, ok := strings.CutPrefix(c.status, "200 "); ok {
						c.want, _ = strconv.Atoi(n)
					}
				}
				if len(c.acc) < c.want {
					break
				}
				body := c.acc[:c.want]
				c.acc = c.acc[c.want:]
				finish(fd, c, body)
				if _, live := conns[fd]; !live {
					return
				}
			}
		}
	}

	for {
		yard.tick()
		// Keep the ramp's connect window full.
		for started < len(plan) && started-settled < c10kBatch {
			c := &genConn{plan: plan[started], idx: started, reqLeft: c10kRequests}
			if regular(c) {
				regularLive++
			}
			started++
			if !dial(c) {
				out.failures++
				settled++
				regularDone(c)
			}
		}
		if len(conns) == 0 && started == len(plan) {
			break
		}
		n := g.sys(kernel.SysPollWait, pfd, evBuf, c10kMaxEvents, 0)
		if _, bad := kernel.IsErr(n); bad {
			out.failures++
			break
		}
		evs := g.read(evBuf, int(n)*8)
		for i := 0; i < int(n); i++ {
			fd := int(binary.LittleEndian.Uint32(evs[i*8:]))
			ev := binary.LittleEndian.Uint32(evs[i*8+4:])
			c, live := conns[fd]
			if !live {
				continue
			}
			if ev&kernel.POLLERR != 0 {
				out.failures++
				settled++
				regularDone(c)
				closeConn(fd, c)
				continue
			}
			if !c.est && ev&kernel.POLLOUT != 0 {
				c.est = true
				established++
				if established > out.peak {
					out.peak = established
				}
				g.sys(kernel.SysPollCtl, pfd, kernel.PollCtlMod, uint64(fd), kernel.POLLIN)
				if !ramping {
					kickOff(fd, c) // churn reconnect mid-run
					continue
				}
				settled++
				if settled == len(plan) {
					// Everything is up at once: start every
					// connection's workload in fd order.
					ramping = false
					for _, cfd := range sortedKeys(conns) {
						kickOff(cfd, conns[cfd])
					}
				}
				continue
			}
			if ev&(kernel.POLLIN|kernel.POLLHUP) != 0 {
				onReadable(fd, c)
			}
		}
	}
	g.sys(kernel.SysClose, pfd)
	g.tr.end(g.seg)
	g.seg = -1
	httpd.StopEventServer(p, httpd.EventPort, true)
	out.finished = true
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
