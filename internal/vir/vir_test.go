package vir_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	. "repro/internal/vir"
	"repro/internal/vir/virref"
)

// memEnv is a minimal Env over a sparse byte map.
type memEnv struct {
	mem        map[hw.Virt]byte
	clock      *hw.Clock
	intrinsics map[string]func(args []uint64) (uint64, error)
	funcs      map[string]*Function
	addrs      map[uint64]*Function
	nextAddr   uint64
	ports      map[uint16]uint64
}

func newMemEnv() *memEnv {
	return &memEnv{
		mem:        make(map[hw.Virt]byte),
		clock:      &hw.Clock{},
		intrinsics: make(map[string]func([]uint64) (uint64, error)),
		funcs:      make(map[string]*Function),
		addrs:      make(map[uint64]*Function),
		nextAddr:   0xffffffc000000000,
		ports:      make(map[uint16]uint64),
	}
}

func (e *memEnv) addFunc(f *Function) uint64 {
	a := e.nextAddr
	e.nextAddr += 0x1000
	e.funcs[f.Name] = f
	e.addrs[a] = f
	return a
}

func (e *memEnv) Load(addr hw.Virt, size int) (uint64, error) {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(e.mem[addr+hw.Virt(i)])
	}
	return v, nil
}

func (e *memEnv) Store(addr hw.Virt, size int, v uint64) error {
	for i := 0; i < size; i++ {
		e.mem[addr+hw.Virt(i)] = byte(v >> (8 * i))
	}
	return nil
}

func (e *memEnv) Memcpy(dst, src hw.Virt, n int) error {
	if n > 1<<16 {
		// Keeps fuzzed IR from spinning the host; both engines see the
		// same error, so differential runs stay aligned.
		return errors.New("memcpy too large for test env")
	}
	for i := 0; i < n; i++ {
		e.mem[dst+hw.Virt(i)] = e.mem[src+hw.Virt(i)]
	}
	return nil
}

func (e *memEnv) Intrinsic(name string, args []uint64) (uint64, error) {
	if fn, ok := e.intrinsics[name]; ok {
		return fn(args)
	}
	return 0, errors.New("unknown intrinsic " + name)
}

func (e *memEnv) FuncByAddr(addr uint64) (*Function, bool) {
	f, ok := e.addrs[addr]
	return f, ok
}

func (e *memEnv) FuncAddr(name string) (uint64, bool) {
	f, ok := e.funcs[name]
	if !ok {
		return 0, false
	}
	for a, g := range e.addrs {
		if g == f {
			return a, true
		}
	}
	return 0, false
}

func (e *memEnv) InKernelCode(addr uint64) bool {
	return addr >= 0xffffffc000000000 && addr < 0xffffffd000000000
}

func (e *memEnv) PortIn(port uint16) (uint64, error)  { return e.ports[port], nil }
func (e *memEnv) PortOut(port uint16, v uint64) error { e.ports[port] = v; return nil }
func (e *memEnv) Clock() *hw.Clock                    { return e.clock }

func run(t *testing.T, f *Function, args ...uint64) uint64 {
	t.Helper()
	env := newMemEnv()
	env.addFunc(f)
	v, err := virref.NewInterp(env).Call(f, args...)
	if err != nil {
		t.Fatalf("run %s: %v", f.Name, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	b := NewFunction("sum3", 3)
	s := b.Add(b.Param(0), b.Param(1))
	s = b.Add(s, b.Param(2))
	b.Ret(s)
	if got := run(t, b.Fn(), 10, 20, 12); got != 42 {
		t.Errorf("sum3 = %d", got)
	}
}

func TestAllBinops(t *testing.T) {
	cases := []struct {
		op   Opcode
		a, b uint64
		want uint64
	}{
		{OpAdd, 5, 3, 8}, {OpSub, 5, 3, 2}, {OpMul, 5, 3, 15},
		{OpAnd, 0b110, 0b011, 0b010}, {OpOr, 0b100, 0b001, 0b101},
		{OpXor, 0b110, 0b011, 0b101}, {OpShl, 1, 4, 16}, {OpShr, 16, 4, 1},
		{OpCmpEQ, 7, 7, 1}, {OpCmpNE, 7, 7, 0}, {OpCmpLT, 3, 7, 1},
		{OpCmpGE, 3, 7, 0},
	}
	for _, c := range cases {
		b := NewFunction("t", 2)
		d := b.Fn().NRegs
		b.Fn().NRegs++
		b.Fn().Entry().Instrs = append(b.Fn().Entry().Instrs,
			Instr{Op: c.op, Dst: d, A: R(0), B: R(1)},
			Instr{Op: OpRet, A: R(d)},
		)
		if got := run(t, b.Fn(), c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// sum 0..n-1
	b := NewFunction("sumto", 1)
	n := b.Param(0)
	i := b.Mov(Imm(0))
	acc := b.Mov(Imm(0))
	b.Br("loop")
	b.NewBlock("loop")
	c := b.CmpLT(i, n)
	b.CondBr(c, "body", "done")
	b.NewBlock("body")
	b.Assign(acc, b.Add(acc, i))
	b.Assign(i, b.Add(i, Imm(1)))
	b.Br("loop")
	b.NewBlock("done")
	b.Ret(acc)
	if got := run(t, b.Fn(), 10); got != 45 {
		t.Errorf("sumto(10) = %d", got)
	}
}

func TestSelect(t *testing.T) {
	b := NewFunction("max", 2)
	c := b.CmpGE(b.Param(0), b.Param(1))
	b.Ret(b.Select(c, b.Param(0), b.Param(1)))
	if got := run(t, b.Fn(), 3, 9); got != 9 {
		t.Errorf("max = %d", got)
	}
}

func TestLoadStoreMemcpy(t *testing.T) {
	b := NewFunction("copy8", 2)
	v := b.Load(b.Param(0), 8)
	b.Store(b.Param(1), v, 8)
	b.Memcpy(b.Add(b.Param(1), Imm(8)), b.Param(0), Imm(4))
	b.Ret(v)
	env := newMemEnv()
	env.addFunc(b.Fn())
	_ = env.Store(0x1000, 8, 0x1122334455667788)
	got, err := virref.NewInterp(env).Call(b.Fn(), 0x1000, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1122334455667788 {
		t.Errorf("load = %#x", got)
	}
	dst, _ := env.Load(0x2000, 8)
	if dst != 0x1122334455667788 {
		t.Errorf("store = %#x", dst)
	}
	cp, _ := env.Load(0x2008, 4)
	if cp != 0x55667788 {
		t.Errorf("memcpy = %#x", cp)
	}
}

func TestDirectCallAndIntrinsic(t *testing.T) {
	callee := NewFunction("double", 1)
	callee.Ret(callee.Add(callee.Param(0), callee.Param(0)))
	caller := NewFunction("main", 0)
	caller.Ret(caller.Call("double", Imm(21)))
	env := newMemEnv()
	env.addFunc(callee.Fn())
	env.addFunc(caller.Fn())
	got, err := virref.NewInterp(env).Call(caller.Fn())
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("call = %d", got)
	}

	// Unknown symbols resolve to intrinsics.
	ienv := newMemEnv()
	hit := uint64(0)
	ienv.intrinsics["probe"] = func(args []uint64) (uint64, error) {
		hit = args[0]
		return 7, nil
	}
	b := NewFunction("m", 0)
	b.Ret(b.Call("probe", Imm(5)))
	ienv.addFunc(b.Fn())
	got, err = virref.NewInterp(ienv).Call(b.Fn())
	if err != nil || got != 7 || hit != 5 {
		t.Errorf("intrinsic: got=%d hit=%d err=%v", got, hit, err)
	}
}

func TestIndirectCallViaFuncAddr(t *testing.T) {
	callee := NewFunction("leaf", 1)
	callee.Ret(callee.Mul(callee.Param(0), Imm(3)))
	caller := NewFunction("main", 0)
	fp := caller.FuncAddr("leaf")
	caller.Ret(caller.CallInd(fp, Imm(7)))
	env := newMemEnv()
	env.addFunc(callee.Fn())
	env.addFunc(caller.Fn())
	got, err := virref.NewInterp(env).Call(caller.Fn())
	if err != nil || got != 21 {
		t.Errorf("indirect call = %d, %v", got, err)
	}
}

func TestCFIRejectsUnlabeledTarget(t *testing.T) {
	gadget := NewFunction("gadget", 0)
	gadget.Ret(Imm(1))
	caller := NewFunction("main", 1)
	caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
		Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
		Instr{Op: OpRet, A: R(0)},
	)
	env := newMemEnv()
	addr := env.addFunc(gadget.Fn()) // not Labeled
	env.addFunc(caller.Fn())
	_, err := virref.NewInterp(env).Call(caller.Fn(), addr)
	var viol *CFIViolation
	if !errors.As(err, &viol) {
		t.Fatalf("want CFIViolation, got %v", err)
	}
	if !strings.Contains(viol.Reason, "label") {
		t.Errorf("reason = %q", viol.Reason)
	}
}

func TestCFIAllowsLabeledKernelTarget(t *testing.T) {
	callee := NewFunction("ok", 0)
	callee.Fn().Entry().Instrs = append(
		[]Instr{{Op: OpCFILabel, Imm: 0xCF1}},
		[]Instr{{Op: OpRet, A: Imm(9)}}...,
	)
	callee.Fn().Labeled = true
	caller := NewFunction("main", 1)
	caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
		Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
		Instr{Op: OpRet, A: R(0)},
	)
	env := newMemEnv()
	addr := env.addFunc(callee.Fn())
	env.addFunc(caller.Fn())
	got, err := virref.NewInterp(env).Call(caller.Fn(), addr)
	if err != nil || got != 9 {
		t.Errorf("labeled call failed: %d %v", got, err)
	}
}

func TestCorruptReturnPivotsPlainRet(t *testing.T) {
	ran := false
	env := newMemEnv()
	env.intrinsics["mark"] = func([]uint64) (uint64, error) { ran = true; return 0, nil }
	gadget := NewFunction("gadget", 0)
	gadget.Call("mark")
	gadget.Ret(Imm(0))
	gAddr := env.addFunc(gadget.Fn())
	vuln := NewFunction("vuln", 1)
	vuln.Call(CorruptReturnIntrinsic, vuln.Param(0))
	vuln.Ret(Imm(0))
	env.addFunc(vuln.Fn())
	if _, err := virref.NewInterp(env).Call(vuln.Fn(), gAddr); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Errorf("pivot did not execute gadget")
	}
}

func TestCorruptReturnBlockedByCFIRet(t *testing.T) {
	env := newMemEnv()
	// The gadget lives outside kernel code space.
	gadget := NewFunction("gadget", 0)
	gadget.Ret(Imm(0))
	env.funcs[gadget.Fn().Name] = gadget.Fn()
	env.addrs[0x41410000] = gadget.Fn()
	vuln := NewFunction("vuln", 1)
	vuln.Call(CorruptReturnIntrinsic, vuln.Param(0))
	vuln.Fn().Entry().Instrs = append(vuln.Fn().Entry().Instrs,
		Instr{Op: OpCFIRet, A: Imm(0)})
	env.addFunc(vuln.Fn())
	_, err := virref.NewInterp(env).Call(vuln.Fn(), 0x41410000)
	var viol *CFIViolation
	if !errors.As(err, &viol) {
		t.Fatalf("want CFIViolation, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	b := NewFunction("spin", 0)
	b.Br("loop")
	b.NewBlock("loop")
	b.Br("loop")
	env := newMemEnv()
	env.addFunc(b.Fn())
	ip := virref.NewInterp(env)
	ip.MaxSteps = 1000
	if _, err := ip.Call(b.Fn()); !errors.Is(err, ErrStepLimit) {
		t.Errorf("want step limit, got %v", err)
	}
}

func TestPortIO(t *testing.T) {
	b := NewFunction("io", 0)
	b.PortOut(Imm(0x40), Imm(0x99))
	b.Ret(b.PortIn(Imm(0x40)))
	if got := run(t, b.Fn()); got != 0x99 {
		t.Errorf("port round trip = %#x", got)
	}
}

// --- verifier ---------------------------------------------------------

func TestVerifyCatchesEmptyBlock(t *testing.T) {
	f := &Function{Name: "bad", Blocks: []*Block{{Name: "entry"}}}
	if err := VerifyFunction(f); err == nil {
		t.Errorf("empty block accepted")
	}
}

func TestVerifyCatchesFallthrough(t *testing.T) {
	f := &Function{Name: "bad", NRegs: 1, Blocks: []*Block{
		{Name: "entry", Instrs: []Instr{{Op: OpConst, Dst: 0, Imm: 1}}},
	}}
	if err := VerifyFunction(f); err == nil {
		t.Errorf("fallthrough accepted")
	}
}

func TestVerifyCatchesMidBlockTerminator(t *testing.T) {
	f := &Function{Name: "bad", Blocks: []*Block{
		{Name: "entry", Instrs: []Instr{
			{Op: OpRet, A: Imm(0)},
			{Op: OpRet, A: Imm(0)},
		}},
	}}
	if err := VerifyFunction(f); err == nil {
		t.Errorf("mid-block terminator accepted")
	}
}

func TestVerifyCatchesBadBranchTarget(t *testing.T) {
	f := &Function{Name: "bad", Blocks: []*Block{
		{Name: "entry", Instrs: []Instr{{Op: OpBr, Blk1: "nowhere"}}},
	}}
	if err := VerifyFunction(f); err == nil {
		t.Errorf("branch to unknown block accepted")
	}
}

func TestVerifyCatchesRegOutOfRange(t *testing.T) {
	f := &Function{Name: "bad", NRegs: 1, Blocks: []*Block{
		{Name: "entry", Instrs: []Instr{{Op: OpRet, A: R(5)}}},
	}}
	if err := VerifyFunction(f); err == nil {
		t.Errorf("out-of-range register accepted")
	}
}

func TestVerifyCatchesBadAccessSize(t *testing.T) {
	f := &Function{Name: "bad", NRegs: 2, Blocks: []*Block{
		{Name: "entry", Instrs: []Instr{
			{Op: OpLoad, Dst: 1, A: R(0), Size: 3},
			{Op: OpRet, A: R(1)},
		}},
	}}
	if err := VerifyFunction(f); err == nil {
		t.Errorf("3-byte load accepted")
	}
}

func TestVerifyAcceptsBuilderOutput(t *testing.T) {
	b := NewFunction("good", 2)
	v := b.Load(b.Param(0), 8)
	b.Store(b.Param(1), v, 4)
	c := b.CmpEQ(v, Imm(0))
	b.CondBr(c, "a", "b")
	b.NewBlock("a")
	b.Ret(Imm(1))
	b.NewBlock("b")
	b.Asm("nop")
	b.Ret(Imm(2))
	if err := VerifyFunction(b.Fn()); err != nil {
		t.Errorf("builder output rejected: %v", err)
	}
}

func TestHasAsm(t *testing.T) {
	m := NewModule("m")
	clean := NewFunction("clean", 0)
	clean.Ret(Imm(0))
	_ = m.AddFunc(clean.Fn())
	if HasAsm(m) {
		t.Errorf("clean module reported as having asm")
	}
	dirty := NewFunction("dirty", 0)
	dirty.Asm("cli")
	dirty.Ret(Imm(0))
	_ = m.AddFunc(dirty.Fn())
	if !HasAsm(m) {
		t.Errorf("asm not detected")
	}
}

func TestModuleDuplicateFunc(t *testing.T) {
	m := NewModule("m")
	a := NewFunction("f", 0)
	a.Ret(Imm(0))
	if err := m.AddFunc(a.Fn()); err != nil {
		t.Fatal(err)
	}
	b := NewFunction("f", 0)
	b.Ret(Imm(0))
	if err := m.AddFunc(b.Fn()); err == nil {
		t.Errorf("duplicate function accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewModule("m")
	f := NewFunction("f", 1)
	f.Ret(f.Add(f.Param(0), Imm(1)))
	_ = m.AddFunc(f.Fn())
	c := m.Clone()
	c.Func("f").Blocks[0].Instrs[0].Imm = 999
	c.Func("f").Name = "f" // same name, different object
	if m.Func("f").Blocks[0].Instrs[0].Imm == 999 {
		t.Errorf("clone shares instruction storage")
	}
}

// --- MaskAddress properties ---------------------------------------------

func TestMaskAddressProperties(t *testing.T) {
	// 1. Ghost addresses never survive masking.
	ghost := func(off uint64) bool {
		a := uint64(hw.GhostBase) + off%(uint64(hw.GhostTop-hw.GhostBase))
		m := MaskAddress(a)
		return !hw.IsGhost(hw.Virt(m))
	}
	// 2. User addresses are untouched.
	user := func(off uint64) bool {
		a := uint64(hw.UserBase) + off%uint64(hw.UserTop-hw.UserBase)
		return MaskAddress(a) == a
	}
	// 3. SVA-internal addresses become 0.
	sva := func(off uint64) bool {
		a := uint64(SVAInternalBase) + off%uint64(SVAInternalTop-SVAInternalBase)
		return MaskAddress(a) == 0
	}
	// 4. Masking is idempotent.
	idem := func(a uint64) bool {
		return MaskAddress(MaskAddress(a)) == MaskAddress(a)
	}
	for name, fn := range map[string]func(uint64) bool{
		"ghost-escapes": ghost, "user-identity": user,
		"sva-zeroed": sva, "idempotent": idem,
	} {
		if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFormatCoversOpcodes(t *testing.T) {
	b := NewFunction("fmt", 2)
	v := b.Load(b.Param(0), 8)
	b.Store(b.Param(1), v, 8)
	b.Memcpy(b.Param(0), b.Param(1), Imm(8))
	b.PortOut(Imm(1), Imm(2))
	_ = b.PortIn(Imm(1))
	_ = b.FuncAddr("x")
	b.Asm("nop")
	c := b.CmpEQ(v, Imm(0))
	sel := b.Select(c, Imm(1), Imm(2))
	_ = b.CallInd(sel)
	b.Ret(Imm(0))
	text := Format(b.Fn())
	for _, want := range []string{"load8", "store8", "memcpy", "portout",
		"portin", "funcaddr", "asm", "select", "callind", "ret"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted output missing %q:\n%s", want, text)
		}
	}
}
