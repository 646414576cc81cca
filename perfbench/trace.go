package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
)

// The traced run splits host time by the program's modules from
// outside: spans around the benchmark's own calls into each layer, plus
// a wrapper around every syscall handler a kernel registers at boot.
// Spans are kept in memory and summarized (and written out) after the
// traced round; nothing here charges virtual cycles, so the traced
// round's ledgers must equal the untraced rounds' bit for bit.

// kind names the layer boundary a span sits on.
type kind uint8

const (
	kindBoot     kind = iota // repro constructors
	kindLoad                 // Kernel.LoadModule
	kindSeed                 // WriteKernelFile, InstallTrustedProgram, server start
	kindRun                  // World.Run, RunUntilIdle, app entry points that schedule
	kindVir                  // Kernel.RunModuleFunc and the kernel's IR routines
	kindSys                  // one syscall handler invocation
	kindClient               // the benchmark's own c10k generator code
	kindLMNative             // each configuration's Table 2 calls
	kindLMVGhost
	kindLMShadow
	numKinds
)

var kindNames = [numKinds]string{
	"repro.boot", "compiler.load", "kernel.seed", "kernel.run", "vir.call",
	"kernel.sys", "bench.client",
	"apps.lmbench.native", "apps.lmbench.vghost", "apps.lmbench.shadow",
}

// span is one interval on a layer boundary. Times are nanoseconds since
// the tracer's epoch; parent is the innermost span open when this one
// began (-1 for none).
type span struct {
	start, end int64
	ret        uint64 // syscall return value
	alloc      uint64 // heap bytes allocated while open (syscall and vir spans)
	parent     int32
	pid        int32
	sys        uint16
	kind       kind
}

// Syscall families, named from the kernel.Sys* constants.
const (
	famFile = iota
	famNet
	famPoll
	famProc
	famMem
	numFams
)

var famNames = [numFams]string{"file", "net", "poll", "proc", "mem"}

// sysFamily lists every syscall number the kernel registers at boot.
// Only these are wrapped: SetSyscallHandler cannot delete an entry, so
// wrapping an unregistered number would turn its ENOSYS into a nil call.
var sysFamily = map[uint64]int{
	kernel.SysOpen: famFile, kernel.SysClose: famFile, kernel.SysRead: famFile,
	kernel.SysWrite: famFile, kernel.SysLseek: famFile, kernel.SysStat: famFile,
	kernel.SysFsync: famFile, kernel.SysUnlink: famFile, kernel.SysMkdir: famFile,
	kernel.SysRmdir: famFile, kernel.SysPipe: famFile,

	kernel.SysSocket: famNet, kernel.SysBind: famNet, kernel.SysListen: famNet,
	kernel.SysAccept: famNet, kernel.SysConnect: famNet, kernel.SysSendTo: famNet,
	kernel.SysRecv: famNet, kernel.SysNonblock: famNet, kernel.SysSockTimeo: famNet,

	kernel.SysPollCreate: famPoll, kernel.SysPollCtl: famPoll,
	kernel.SysPollWait: famPoll, kernel.SysSelect: famPoll,

	kernel.SysFork: famProc, kernel.SysExecve: famProc, kernel.SysExit: famProc,
	kernel.SysWait4: famProc, kernel.SysGetpid: famProc, kernel.SysKill: famProc,
	kernel.SysSigact: famProc, kernel.SysSigret: famProc, kernel.SysYield: famProc,
	kernel.SysRandom: famProc,

	kernel.SysMmap: famMem, kernel.SysMunmap: famMem, kernel.SysSbrk: famMem,
	kernel.SysSwapOut: famMem,
}

// tracer records spans. A nil *tracer is the untraced mode: every
// method returns at once, so untraced rounds pay one nil check per
// boundary. The simulation runs one goroutine at a time (process
// goroutines hand off through channels), so no locking is needed.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // open spans in start order
	// sysOn gates syscall spans to the timed phase; set-up spans are
	// recorded regardless.
	sysOn bool
	// sysOverhead is the host time syscall wrappers spent outside their
	// spans (ns): tracer work, not the program's.
	sysOverhead int64
	allocs      []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<16),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span and returns its id.
func (t *tracer) begin(k kind, pid int, sys uint64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: parent, pid: int32(pid), sys: uint16(sys), kind: k})
	t.open = append(t.open, id)
	return id
}

// end closes span id. Spans usually close innermost-first, but a
// syscall that blocked can outlive spans that began inside it.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// measured runs fn inside a span of kind k that also records the heap
// bytes allocated while it was open.
func (t *tracer) measured(k kind, fn func()) {
	if t == nil {
		fn()
		return
	}
	a0 := t.heapAllocs()
	id := t.begin(k, 0, 0)
	defer func() {
		t.end(id)
		t.spans[id].alloc = t.heapAllocs() - a0
	}()
	fn()
}

// within runs fn inside a span of kind k.
func (t *tracer) within(k kind, fn func()) {
	id := t.begin(k, 0, 0)
	defer t.end(id)
	fn()
}

// wrapKernel interposes a timing wrapper on every syscall the kernel
// registers at boot, through the public SetSyscallHandler hook.
func (t *tracer) wrapKernel(k *kernel.Kernel) error {
	if t == nil {
		return nil
	}
	for num := range sysFamily {
		var inner kernel.SyscallHandler
		inner = k.SetSyscallHandler(num, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
			if !t.sysOn {
				return inner(k, p, ic)
			}
			// The allocation reads cost more than many handlers, so
			// they sit outside the span, and the time they take is
			// kept out of kernel.other.ms as sysOverhead.
			t0 := t.now()
			a0 := t.heapAllocs()
			id := t.begin(kindSys, p.PID, num)
			var ret uint64
			defer func() {
				t.end(id)
				s := &t.spans[id]
				s.ret = ret
				s.alloc = t.heapAllocs() - a0
				t.sysOverhead += t.now() - t0 - (s.end - s.start)
			}()
			ret = inner(k, p, ic)
			return ret
		})
		if inner == nil {
			return fmt.Errorf("syscall %d is not registered at boot; the tracer's family table is stale", num)
		}
	}
	return nil
}

// accounting is the sweep over a span set: each instant of host time
// belongs to the innermost open span (its self time), and a syscall
// span is blocked when another span began while it was open.
type accounting struct {
	self    []int64
	blocked []bool
}

// account sweeps the spans' start and end events in time order. At
// equal times ends go first, so back-to-back spans do not block each
// other. Spans still open (end < start) are ignored.
func account(spans []span) accounting {
	type event struct {
		t     int64
		id    int32
		start bool
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		evs = append(evs, event{s.start, int32(i), true}, event{s.end, int32(i), false})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return !evs[i].start && evs[j].start
	})
	acc := accounting{self: make([]int64, len(spans)), blocked: make([]bool, len(spans))}
	var open []int32
	var last int64
	for _, e := range evs {
		if n := len(open); n > 0 {
			acc.self[open[n-1]] += e.t - last
		}
		last = e.t
		if e.start {
			for _, o := range open {
				if spans[o].kind == kindSys {
					acc.blocked[o] = true
				}
			}
			open = append(open, e.id)
			continue
		}
		for i := len(open) - 1; i >= 0; i-- {
			if open[i] == e.id {
				open = append(open[:i], open[i+1:]...)
				break
			}
		}
	}
	return acc
}

const nsPerMs = 1e6

// layerMetrics reduces the traced round's spans to the per-layer
// metrics the spans feed (every other per-layer metric is filled by the
// caller). kernel.other.ms is the self time of scheduler-run spans and
// blocked syscalls, less sysOverhead (ns), the wrappers' own time.
func layerMetrics(spans []span, sysOverhead int64) map[string]float64 {
	m := map[string]float64{}
	for _, n := range spanMetricNames() {
		m[n] = 0
	}
	acc := account(spans)
	var busyAll, clientAll, runAll, otherAll float64
	var waits, events, recvs, eagains float64
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		ms := float64(s.end-s.start) / nsPerMs
		switch s.kind {
		case kindBoot:
			m["repro.boot.calls"]++
			m["repro.boot.ms"] += ms
		case kindLoad:
			m["compiler.load.calls"]++
			m["compiler.load.ms"] += ms
		case kindSeed:
			m["kernel.seed.ms"] += ms
		case kindRun:
			runAll += ms
			otherAll += float64(acc.self[i]) / nsPerMs
		case kindVir:
			m["vir.call.calls"]++
			m["vir.call.ms"] += ms
			m["vir.call.alloc_mb"] += float64(s.alloc) / mb
		case kindClient:
			clientAll += ms
		case kindLMNative, kindLMVGhost, kindLMShadow:
			m[kindNames[s.kind]+".ms"] += ms
		case kindSys:
			fam, ok := sysFamily[uint64(s.sys)]
			if !ok {
				continue
			}
			p := "kernel." + famNames[fam] + "."
			m[p+"calls"]++
			if acc.blocked[i] {
				m[p+"wait_ms"] += ms
				otherAll += float64(acc.self[i]) / nsPerMs
			} else {
				m[p+"busy_ms"] += ms
				m[p+"alloc_mb"] += float64(s.alloc) / mb
				busyAll += ms
			}
			// select returns a 64-bit ready mask, which reads as an
			// errno whenever descriptor 63 is ready; it is not counted.
			e, isErr := kernel.IsErr(s.ret)
			if isErr && s.sys != kernel.SysSelect {
				m[p+"errs"]++
			}
			switch uint64(s.sys) {
			case kernel.SysPollWait:
				waits++
				if !isErr {
					events += float64(s.ret)
				}
			case kernel.SysRecv, kernel.SysAccept:
				recvs++
				if isErr && e == kernel.EAGAIN {
					eagains++
				}
			}
		}
	}
	m["kernel.run.ms"] = runAll
	m["kernel.other.ms"] = otherAll - float64(sysOverhead)/nsPerMs
	m["bench.client.ms"] = clientAll
	if waits > 0 {
		m["kernel.poll.events_per_wait"] = events / waits
	}
	if recvs > 0 {
		m["kernel.net.eagain_frac"] = eagains / recvs
	}
	return m
}

// spanMetricNames lists the per-layer metrics layerMetrics produces.
func spanMetricNames() []string {
	names := []string{
		"repro.boot.calls", "repro.boot.ms",
		"compiler.load.calls", "compiler.load.ms",
		"kernel.seed.ms",
	}
	for _, f := range famNames {
		for _, s := range []string{"calls", "busy_ms", "wait_ms", "errs", "alloc_mb"} {
			names = append(names, "kernel."+f+"."+s)
		}
	}
	return append(names,
		"kernel.poll.events_per_wait", "kernel.net.eagain_frac",
		"kernel.run.ms", "kernel.other.ms",
		"vir.call.calls", "vir.call.ms", "vir.call.alloc_mb",
		"apps.lmbench.native.ms", "apps.lmbench.vghost.ms", "apps.lmbench.shadow.ms",
		"bench.client.ms",
	)
}

// writeSpans writes the spans as tab-separated lines: name, pid,
// syscall, parent, start and end in ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tpid\tsyscall\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", kindNames[s.kind], s.pid, s.sys, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
