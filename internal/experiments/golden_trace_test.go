package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro"
	"repro/internal/hw"
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
	if *updateGolden {
		writeGolden(t, goldenTracePath, got)
		return
	}
	compareGoldenFile(t, goldenTracePath, got, func(d traceDigest) string {
		return fmt.Sprintf("events=%d cycles=%d sha256=%s", d.Events, d.Cycles, d.SHA256)
	})
}

const goldenTracePath = "testdata/golden_trace.json"

// traceDigest summarizes one traced call's event stream.
type traceDigest struct {
	Events int    `json:"events"`
	Cycles uint64 `json:"cycles"`
	SHA256 string `json:"sha256"`
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
