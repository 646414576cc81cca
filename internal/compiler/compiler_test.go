package compiler

import (
	"errors"

	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/vir"
	"repro/internal/vir/virref"
)

// buildKernelFunc makes a small function with one load, one store, one
// memcpy, one indirect call, and a return.
func buildKernelFunc(name string) *vir.Function {
	b := vir.NewFunction(name, 2)
	v := b.Load(b.Param(0), 8)
	b.Store(b.Param(1), v, 8)
	b.Memcpy(b.Param(1), b.Param(0), vir.Imm(16))
	_ = b.CallInd(b.Param(0))
	b.Ret(v)
	return b.Fn()
}

func TestSandboxPassMasksEveryMemoryOp(t *testing.T) {
	f := buildKernelFunc("f")
	loads := f.CountOps(vir.OpLoad)
	stores := f.CountOps(vir.OpStore)
	SandboxPass(f)
	if !f.Sandboxed {
		t.Fatalf("not marked sandboxed")
	}
	// One mask per load, one per store, two per memcpy.
	wantMasks := loads + stores + 2
	if got := f.CountOps(vir.OpMaskGhost); got != wantMasks {
		t.Errorf("masks = %d, want %d", got, wantMasks)
	}
	// Every load/store address operand must now be a register written
	// by a preceding mask in the same block.
	for _, blk := range f.Blocks {
		masked := map[int]bool{}
		for _, in := range blk.Instrs {
			switch in.Op {
			case vir.OpMaskGhost:
				masked[in.Dst] = true
			case vir.OpLoad, vir.OpStore:
				if in.A.IsImm || !masked[in.A.Reg] {
					t.Errorf("unmasked address operand in %v", in.Op)
				}
			case vir.OpMemcpy:
				if in.A.IsImm || !masked[in.A.Reg] || in.B.IsImm || !masked[in.B.Reg] {
					t.Errorf("unmasked memcpy operand")
				}
			}
		}
	}
	if err := vir.VerifyFunction(f); err != nil {
		t.Errorf("sandboxed function fails verification: %v", err)
	}
}

func TestSandboxPassIdempotent(t *testing.T) {
	f := buildKernelFunc("f")
	SandboxPass(f)
	n := f.CountOps(vir.OpMaskGhost)
	SandboxPass(f)
	if f.CountOps(vir.OpMaskGhost) != n {
		t.Errorf("second pass added more masks")
	}
}

func TestCFIPassRewritesControlFlow(t *testing.T) {
	f := buildKernelFunc("f")
	CFIPass(f)
	if !f.Labeled {
		t.Fatalf("not labeled")
	}
	if f.CountOps(vir.OpRet) != 0 || f.CountOps(vir.OpCFIRet) == 0 {
		t.Errorf("returns not instrumented")
	}
	if f.CountOps(vir.OpCallInd) != 0 || f.CountOps(vir.OpCFICallInd) == 0 {
		t.Errorf("indirect calls not instrumented")
	}
	if f.Entry().Instrs[0].Op != vir.OpCFILabel {
		t.Errorf("entry label missing")
	}
	if f.Entry().Instrs[0].Imm != KernelCFILabel {
		t.Errorf("wrong label %#x", f.Entry().Instrs[0].Imm)
	}
	if err := vir.VerifyFunction(f); err != nil {
		t.Errorf("CFI'd function fails verification: %v", err)
	}
}

func TestMmapMaskPass(t *testing.T) {
	b := vir.NewFunction("app", 0)
	ptr := b.Call("mmap", vir.Imm(4096))
	v := b.Load(ptr, 8)
	b.Ret(v)
	f := b.Fn()
	MmapMaskPass(f)
	// The instruction right after the mmap call must be a mask of its
	// result.
	instrs := f.Entry().Instrs
	for i, in := range instrs {
		if in.Op == vir.OpCall && in.Sym == "mmap" {
			if instrs[i+1].Op != vir.OpMaskGhost || instrs[i+1].A.Reg != in.Dst {
				t.Fatalf("mmap result not masked")
			}
			if instrs[i+2].Op != vir.OpMov || instrs[i+2].Dst != in.Dst {
				t.Fatalf("mask not written back")
			}
			return
		}
	}
	t.Fatalf("mmap call disappeared")
}

func TestTranslatorRejectsAsm(t *testing.T) {
	m := vir.NewModule("m")
	b := vir.NewFunction("f", 0)
	b.Asm("cli")
	b.Ret(vir.Imm(0))
	_ = m.AddFunc(b.Fn())
	tr := NewTranslator(true)
	if _, err := tr.Translate(m); !errors.Is(err, ErrInlineAsm) {
		t.Errorf("want ErrInlineAsm, got %v", err)
	}
	// Native accepts the same module.
	nat := NewTranslator(false)
	if _, err := nat.Translate(m); err != nil {
		t.Errorf("native translator rejected asm: %v", err)
	}
}

func TestTranslatorRejectsMalformed(t *testing.T) {
	m := vir.NewModule("m")
	_ = m.AddFunc(&vir.Function{Name: "bad", Blocks: []*vir.Block{{Name: "entry"}}})
	tr := NewTranslator(true)
	if _, err := tr.Translate(m); !errors.Is(err, ErrNotVerifiable) {
		t.Errorf("want ErrNotVerifiable, got %v", err)
	}
}

func TestTranslateLeavesInputPristine(t *testing.T) {
	m := vir.NewModule("m")
	_ = m.AddFunc(buildKernelFunc("f"))
	before := vir.FormatModule(m)
	tr := NewTranslator(true)
	if _, err := tr.Translate(m); err != nil {
		t.Fatal(err)
	}
	if vir.FormatModule(m) != before {
		t.Errorf("translator mutated its input module")
	}
}

func TestTranslationSignatureDetectsTampering(t *testing.T) {
	m := vir.NewModule("m")
	_ = m.AddFunc(buildKernelFunc("f"))
	tr := NewTranslator(true)
	out, err := tr.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verify() {
		t.Fatalf("fresh translation fails verification")
	}
	// The OS patches the cached native code.
	out.Module.Func("f").Blocks[0].Instrs[0].Imm ^= 1
	if out.Verify() {
		t.Errorf("tampered translation still verifies")
	}
}

func TestCodeSpaceLayout(t *testing.T) {
	tr := NewTranslator(true)
	m := vir.NewModule("m")
	_ = m.AddFunc(buildKernelFunc("a"))
	_ = m.AddFunc(buildKernelFunc("b"))
	out, err := tr.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	aAddr, ok := out.Entry("a")
	if !ok {
		t.Fatalf("no entry for a")
	}
	bAddr, _ := out.Entry("b")
	if aAddr == bAddr {
		t.Errorf("functions share an entry address")
	}
	if !tr.Space.InKernelCode(aAddr) || !tr.Space.InKernelCode(bAddr) {
		t.Errorf("entries outside kernel code space")
	}
	f, ok := tr.Space.FuncByAddr(aAddr)
	if !ok || f.Name != "a" {
		t.Errorf("address does not resolve back to the function")
	}
	if got, ok := tr.Space.FuncAddr("b"); !ok || got != bAddr {
		t.Errorf("FuncAddr(b) = %#x, %v", got, ok)
	}
}

func TestCodeSpaceDuplicateSymbol(t *testing.T) {
	tr := NewTranslator(false)
	m1 := vir.NewModule("m1")
	_ = m1.AddFunc(buildKernelFunc("dup"))
	if _, err := tr.Translate(m1); err != nil {
		t.Fatal(err)
	}
	m2 := vir.NewModule("m2")
	_ = m2.AddFunc(buildKernelFunc("dup"))
	if _, err := tr.Translate(m2); err == nil {
		t.Errorf("duplicate symbol accepted into code space")
	}
}

func TestPlantForeignStaysOutsideKernel(t *testing.T) {
	cs := NewCodeSpace()
	g := vir.NewFunction("g", 0)
	g.Ret(vir.Imm(0))
	cs.PlantForeign(0x41410000, g.Fn())
	if cs.InKernelCode(0x41410000) {
		t.Errorf("planted address reported as kernel code")
	}
	if f, ok := cs.FuncByAddr(0x41410000); !ok || f.Name != "g" {
		t.Errorf("planted code not resolvable")
	}
}

func TestInstrumentedFlag(t *testing.T) {
	m := vir.NewModule("m")
	_ = m.AddFunc(buildKernelFunc("f"))
	vg, _ := NewTranslator(true).Translate(m)
	nat, _ := NewTranslator(false).Translate(m)
	if !vg.Instrumented() || nat.Instrumented() {
		t.Errorf("Instrumented flags wrong: vg=%v nat=%v", vg.Instrumented(), nat.Instrumented())
	}
}

// TestPassesPreserveSemantics: for random inputs, a pure-arithmetic
// function computes the same result before and after the full pipeline
// (the instrumentation must be semantically transparent for code that
// never touches protected memory).
func TestPassesPreserveSemantics(t *testing.T) {
	build := func() *vir.Function {
		b := vir.NewFunction("poly", 2)
		x, y := b.Param(0), b.Param(1)
		t1 := b.Mul(x, x)
		t2 := b.Mul(vir.Imm(3), y)
		s := b.Add(t1, t2)
		s = b.Xor(s, vir.Imm(0x5a5a))
		b.Ret(s)
		return b.Fn()
	}
	plain := build()
	instr := build()
	SandboxPass(instr)
	CFIPass(instr)
	env := newEvalEnv()
	envAddr1 := env.add(plain)
	envAddr2 := env.add(instr)
	_ = envAddr1
	_ = envAddr2
	fn := func(x, y uint64) bool {
		a, err1 := virref.NewInterp(env).Call(plain, x, y)
		b, err2 := virref.NewInterp(env).Call(instr, x, y)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// evalEnv is a no-memory Env for pure functions.
type evalEnv struct {
	addrs map[uint64]*vir.Function
	next  uint64
	clock hw.Clock
}

func newEvalEnv() *evalEnv {
	return &evalEnv{addrs: map[uint64]*vir.Function{}, next: KernelCodeBase}
}

func (e *evalEnv) add(f *vir.Function) uint64 {
	a := e.next
	e.next += 0x1000
	e.addrs[a] = f
	return a
}

func (e *evalEnv) Load(addr hw.Virt, size int) (uint64, error)  { return 0, nil }
func (e *evalEnv) Store(addr hw.Virt, size int, v uint64) error { return nil }
func (e *evalEnv) Memcpy(dst, src hw.Virt, n int) error         { return nil }
func (e *evalEnv) Intrinsic(name string, args []uint64) (uint64, error) {
	return 0, nil
}
func (e *evalEnv) FuncByAddr(addr uint64) (*vir.Function, bool) {
	f, ok := e.addrs[addr]
	return f, ok
}
func (e *evalEnv) FuncAddr(name string) (uint64, bool) { return 0, false }
func (e *evalEnv) InKernelCode(addr uint64) bool {
	return addr >= KernelCodeBase && addr < KernelCodeTop
}
func (e *evalEnv) PortIn(port uint16) (uint64, error)  { return 0, nil }
func (e *evalEnv) PortOut(port uint16, v uint64) error { return nil }
func (e *evalEnv) Clock() *hw.Clock                    { return &e.clock }
