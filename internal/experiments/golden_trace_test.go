package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vir"
)

// TestGoldenModuleTrace pins every charge event of traced module code:
// the kernel's own IR routines (kmemset, kchecksum, kmemcmp) and a small
// module that folds a buffer through a function-pointer table, on the
// native and Virtual Ghost kernels. Under Virtual Ghost the module runs
// with the sandboxing and CFI instrumentation, so cfi.callind and
// cfi.ret are on the traced path. The totals in golden_cycles.json
// would not notice a charge that moved to another tag, was split in
// two, or came in a different order; the event stream does. Each entry
// is the event count, the cycles they sum to and a SHA-256 over every
// event's fields in recording order.
//
// After an intentional cost-model change, regenerate with:
//
//	go test ./internal/experiments -run TestGoldenModuleTrace -update
func TestGoldenModuleTrace(t *testing.T) {
	got := make(map[string]traceDigest)
	for _, m := range []struct {
		name string
		mode repro.Mode
	}{{"native", repro.Native}, {"vghost", repro.VirtualGhost}} {
		for name, d := range traceModuleRun(t, m.mode) {
			got[m.name+"/"+name] = d
		}
	}
	checkGoldenTrace(t, got, func(name string) bool { return !smpTraceEntry(name) })
}

const goldenTracePath = "testdata/golden_trace.json"

// smpTraceEntry reports whether a golden_trace.json entry belongs to
// TestGoldenSMPTrace; the others belong to TestGoldenModuleTrace.
func smpTraceEntry(name string) bool { return strings.HasPrefix(name, "smp/") }

// checkGoldenTrace compares got with the golden_trace.json entries own
// selects or, with -update, rewrites those entries and keeps the rest.
func checkGoldenTrace(t *testing.T, got map[string]traceDigest, own func(name string) bool) {
	t.Helper()
	if *updateGolden {
		all := make(map[string]traceDigest)
		if data, err := os.ReadFile(goldenTracePath); err == nil {
			if err := json.Unmarshal(data, &all); err != nil {
				t.Fatalf("bad golden file: %v", err)
			}
		}
		maps.DeleteFunc(all, func(name string, _ traceDigest) bool { return own(name) })
		maps.Copy(all, got)
		writeGolden(t, goldenTracePath, all)
		return
	}
	compareGoldenFile(t, goldenTracePath, got, own, traceDigest.String)
}

// traceDigest summarizes one traced run's retained event stream. Total
// and Dropped are the tracer's own counts, pinned for runs whose ring
// may wrap (TestGoldenSMPTrace); module runs leave them zero.
type traceDigest struct {
	Events  int    `json:"events"`
	Cycles  uint64 `json:"cycles"`
	Total   uint64 `json:"total,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	SHA256  string `json:"sha256"`
}

func (d traceDigest) String() string {
	return fmt.Sprintf("events=%d cycles=%d total=%d dropped=%d sha256=%s", d.Events, d.Cycles, d.Total, d.Dropped, d.SHA256)
}

// TestGoldenSMPTrace pins the trace of multi-CPU runs whose user
// segments share epochs. On 2 and 4 CPUs, native and Virtual Ghost,
// one process more than there are CPUs loops over Compute,
// ComputeCrypt, a user-memory Write and Read, and getpid, so each
// epoch's user phase charges several CPUs from one base and the tracer
// must order their events by start cycle, then CPU. Each run is traced
// at two ring capacities: 65,536 keeps every event, 512 wraps.
//
// After an intentional cost-model change, regenerate with:
//
//	go test ./internal/experiments -run TestGoldenSMPTrace -update
func TestGoldenSMPTrace(t *testing.T) {
	got := make(map[string]traceDigest)
	for _, ncpu := range []int{2, 4} {
		for _, m := range []struct {
			name string
			mode repro.Mode
		}{{"native", repro.Native}, {"vghost", repro.VirtualGhost}} {
			for _, capacity := range []int{1 << 16, 512} {
				got[fmt.Sprintf("smp/%dcpu/%s/ring%d", ncpu, m.name, capacity)] = traceSMPRun(t, m.mode, ncpu, capacity)
			}
		}
	}
	checkGoldenTrace(t, got, smpTraceEntry)
}

// traceSMPRun boots an ncpu-CPU system, attaches a tracer of the given
// capacity, runs ncpu+1 segmentLoop processes to completion and digests
// what the tracer retained.
func traceSMPRun(t *testing.T, mode repro.Mode, ncpu, capacity int) traceDigest {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = ncpu
	sys, err := repro.NewSystemWithOptions(mode, repro.Options{Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	tr := hw.NewTracer(capacity)
	sys.Machine.Clock.AttachTracer(tr)
	for i := 0; i <= ncpu; i++ {
		if _, err := sys.Kernel.Spawn("segloop", segmentLoop(i)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Kernel.RunUntilIdle()
	sys.Machine.Clock.AttachTracer(nil)
	d := digestEvents(tr.Events())
	d.Total, d.Dropped = tr.Total(), tr.Dropped()
	return d
}

// segmentLoop is process i's program: sixteen user segments, each sized
// by i and the round and ended by a getpid syscall.
func segmentLoop(i int) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		buf := p.Alloc(256)
		data := make([]byte, 40+24*i)
		for r := 0; r < 16; r++ {
			p.Compute(uint64(500 + 300*i + 40*r))
			p.ComputeCrypt(uint64(200 + 50*i))
			p.Write(buf, data)
			p.Read(buf, len(data))
			if pid := p.Syscall(kernel.SysGetpid); pid != uint64(p.PID) {
				panic(fmt.Sprintf("getpid = %d in pid %d", pid, p.PID))
			}
		}
	}
}

// traceTableModule fills a buffer with a xorshift stream and folds it
// through a four-entry function-pointer table, one indirect call per
// byte, so a call site sees every table entry in turn.
const traceTableModule = `module tracetab
func t_add(2 params) {
entry:
  %r2 = add %r0, %r1
  ret %r2
}
func t_xor(2 params) {
entry:
  %r2 = mul %r1, 0x9e3779b1
  %r3 = xor %r0, %r2
  ret %r3
}
func t_rot(2 params) {
entry:
  %r2 = shl %r0, 0x5
  %r3 = shr %r0, 0x3b
  %r4 = or %r2, %r3
  %r5 = add %r4, %r1
  ret %r5
}
func t_sub(2 params) {
entry:
  %r2 = sub %r0, %r1
  ret %r2
}
func settable(1 params) {
entry:
  %r1 = funcaddr t_add
  store8 [%r0], %r1
  %r2 = funcaddr t_xor
  %r3 = add %r0, 0x8
  store8 [%r3], %r2
  %r4 = funcaddr t_rot
  %r5 = add %r0, 0x10
  store8 [%r5], %r4
  %r6 = funcaddr t_sub
  %r7 = add %r0, 0x18
  store8 [%r7], %r6
  ret 0x0
}
func fill(3 params) {
entry:
  %r3 = mov 0x0
  %r4 = mov %r2
  br loop
loop:
  %r5 = cmplt %r3, %r1
  condbr %r5, body, done
body:
  %r6 = shl %r4, 0xd
  %r7 = xor %r4, %r6
  %r8 = shr %r7, 0x7
  %r9 = xor %r7, %r8
  %r10 = shl %r9, 0x11
  %r4 = xor %r9, %r10
  %r11 = add %r0, %r3
  store1 [%r11], %r4
  %r3 = add %r3, 0x1
  br loop
done:
  ret %r4
}
func dispatch(3 params) {
entry:
  %r3 = mov 0x0
  %r4 = mov 0x0
  br loop
loop:
  %r5 = cmplt %r3, %r2
  condbr %r5, body, done
body:
  %r6 = add %r1, %r3
  %r7 = load1 [%r6]
  %r8 = and %r7, 0x3
  %r9 = shl %r8, 0x3
  %r10 = add %r0, %r9
  %r11 = load8 [%r10]
  %r4 = callind %r11(%r4, %r7)
  %r3 = add %r3, 0x1
  br loop
done:
  ret %r4
}
`

// traceModuleRun boots a system, loads the table module and traces
// each call of a fixed sequence on its own tracer, returning one digest
// per call.
func traceModuleRun(t *testing.T, mode repro.Mode) map[string]traceDigest {
	t.Helper()
	s := newSystem(mode)
	k := s.Kernel
	m, err := vir.ParseModule(traceTableModule)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.LoadModule(m)
	if err != nil {
		t.Fatal(err)
	}
	const (
		table = 0xffffff8000300000
		bufA  = table + 0x1000
		bufB  = table + 0x2000
		n     = 300
	)
	clk := s.Machine.Clock
	out := make(map[string]traceDigest)
	traced := func(name string, run func() error) {
		t.Helper()
		tr := hw.NewTracer(1 << 16)
		clk.AttachTracer(tr)
		err := run()
		clk.AttachTracer(nil)
		if err != nil {
			t.Fatalf("%v %s: %v", mode, name, err)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("%v %s: tracer dropped %d events", mode, name, tr.Dropped())
		}
		out[name] = digestEvents(tr.Events())
	}
	call := func(fn string, args ...uint64) func() error {
		return func() error {
			_, err := k.RunModuleFunc(mod, fn, args...)
			return err
		}
	}
	traced("1-kmemset", func() error { return k.KMemset(bufA, 0x5a, n) })
	traced("2-fill-a", call("fill", bufA, n, 0x9e3779b97f4a7c15))
	traced("3-kchecksum", func() error {
		sum, err := k.KChecksum(bufA, n)
		if err == nil && sum == 0 {
			err = fmt.Errorf("checksum of a filled buffer is 0")
		}
		return err
	})
	traced("4-fill-b", call("fill", bufB, n, 0x9e3779b97f4a7c15))
	traced("5-kmemcmp-equal", func() error {
		eq, err := k.KMemcmp(bufA, bufB, n)
		if err == nil && !eq {
			err = fmt.Errorf("equal buffers compare unequal")
		}
		return err
	})
	traced("6-kmemset-poke", func() error { return k.KMemset(bufB+217, 0xff, 1) })
	traced("7-kmemcmp-differ", func() error {
		eq, err := k.KMemcmp(bufA, bufB, n)
		if err == nil && eq {
			err = fmt.Errorf("buffers differing at 217 compare equal")
		}
		return err
	})
	traced("8-settable", call("settable", table))
	traced("9-dispatch", call("dispatch", table, bufA, n))
	return out
}

// digestEvents hashes every field of every event in order.
func digestEvents(evs []hw.TraceEvent) traceDigest {
	h := sha256.New()
	var cycles uint64
	var b [40]byte
	for _, ev := range evs {
		binary.LittleEndian.PutUint64(b[0:], uint64(ev.Tag))
		binary.LittleEndian.PutUint32(b[8:], uint32(ev.CPU))
		binary.LittleEndian.PutUint32(b[12:], uint32(ev.PID))
		binary.LittleEndian.PutUint64(b[16:], uint64(ev.Ctx))
		binary.LittleEndian.PutUint64(b[24:], ev.Start)
		binary.LittleEndian.PutUint64(b[32:], ev.Dur)
		h.Write(b[:])
		cycles += ev.Dur
	}
	return traceDigest{Events: len(evs), Cycles: cycles, SHA256: fmt.Sprintf("%x", h.Sum(nil))}
}
