package vir_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/hw"
	. "repro/internal/vir"
	"repro/internal/vir/virref"
)

// Tests for the superinstruction fusion pass and the polymorphic inline
// caches (fuse.go). The differential harness (runDiff) already runs
// every diff test on the fusing engine against the reference
// interpreter; this file pins the pass's mechanics: which idioms fuse,
// exact cycle counts when the step budget lands mid-idiom, and
// inline-cache hit/miss/invalidation behavior.

// fuseIdiomsSource plants the three fused idioms — cmp+condbr,
// mask+store and mask+load — in a function with a loop ("hot") and in
// a loop-free one ("flat"). Beside them, each function plants the pairs
// that must lower unfused (unfusedPairs): const+ALU, add+br, sub+br,
// call+ret and a compare+condbr whose compare has an immediate A.
const fuseIdiomsSource = `module fuseall
func leaf(1 params) {
entry:
  %r1 = add %r0, 0x1
  ret %r1
}
func hot(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, %r0
  condbr %r2, body, done
body:
  %r3 = const 0x3
  %r4 = mul %r1, %r3
  %r5 = maskghost %r0
  store8 [%r5], %r4
  %r6 = maskghost %r0
  %r7 = load8 [%r6]
  %r8 = cmplt 0x2, %r1
  condbr %r8, up, down
up:
  %r1 = add %r1, 0x1
  br head
down:
  %r1 = add %r1, 0x2
  %r9 = sub %r1, 0x1
  br head
done:
  %r10 = call leaf(%r1)
  ret %r10
}
func flat(1 params) {
entry:
  %r1 = maskghost %r0
  store8 [%r1], 0x7
  %r2 = maskghost %r0
  %r3 = load8 [%r2]
  %r4 = const 0x2
  %r5 = mul %r3, %r4
  %r6 = cmplt %r5, %r0
  condbr %r6, a, b
a:
  %r7 = cmplt 0x1, %r5
  condbr %r7, b, c
b:
  %r8 = add %r5, 0x1
  br c
c:
  %r9 = sub %r5, 0x1
  br d
d:
  %r10 = call leaf(%r9)
  ret %r10
}
`

// fuseIdiomsFuncs are the fusing functions of fuseIdiomsSource, each
// with an argument under which every block runs and the
// superinstructions it must lower to, in code order.
var fuseIdiomsFuncs = []struct {
	name  string
	arg   uint64
	fused []Opcode
}{
	{"hot", 5, []Opcode{OpFusedCmpBr, OpFusedMaskStore, OpFusedMaskLoad}},
	{"flat", 0x2000, []Opcode{OpFusedMaskStore, OpFusedMaskLoad, OpFusedCmpBr}},
}

// unfusedPairs are the adjacent pairs both fusing functions of
// fuseIdiomsSource hold that the pass must leave as two instructions.
var unfusedPairs = []struct {
	name string
	a, b Opcode
	immA bool // the first instruction's A operand is an immediate
}{
	{"const+ALU", OpConst, OpMul, false},
	{"add+br", OpAdd, OpBr, false},
	{"sub+br", OpSub, OpBr, false},
	{"call+ret", OpCall, OpRet, false},
	{"immediate-A cmp+condbr", OpCmpLT, OpCondBr, true},
}

func addParsedModule(t testing.TB, env *memEnv, source, main string) *Function {
	t.Helper()
	m, err := ParseModule(source)
	if err != nil {
		t.Fatal(err)
	}
	var fn *Function
	for _, g := range m.Funcs {
		env.addFunc(g)
		if g.Name == main {
			fn = g
		}
	}
	if fn == nil {
		t.Fatalf("function %q not in module", main)
	}
	return fn
}

// linkFuseIdioms runs "hot" and "flat" on one engine and returns it
// with both lowerings.
func linkFuseIdioms(t *testing.T) (*Engine, map[string][]LoweredInstr) {
	t.Helper()
	m, err := ParseModule(fuseIdiomsSource)
	if err != nil {
		t.Fatal(err)
	}
	env := newMemEnv()
	for _, g := range m.Funcs {
		env.addFunc(g)
	}
	eng := NewEngine()
	lowered := make(map[string][]LoweredInstr)
	for _, f := range fuseIdiomsFuncs {
		fn := m.Func(f.name)
		if _, err := eng.Call(env, fn, f.arg); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		lowered[f.name] = eng.Lowered(fn)
	}
	return eng, lowered
}

// TestFusionPatterns pins which sites fuse: the three idioms, in the
// function with a loop and in the loop-free one alike, and none of the
// pairs in unfusedPairs. The observables stay identical to the
// reference.
func TestFusionPatterns(t *testing.T) {
	for _, f := range fuseIdiomsFuncs {
		o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
			return addParsedModule(t, env, fuseIdiomsSource, f.name), []uint64{f.arg}
		})
		if o.errStr != "" {
			t.Fatalf("%s: unexpected error: %q", f.name, o.errStr)
		}
	}

	eng, lowered := linkFuseIdioms(t)
	total := 0
	for _, f := range fuseIdiomsFuncs {
		code := lowered[f.name]
		var got []Opcode
		for _, in := range code {
			if in.Fused > 0 {
				got = append(got, in.Base)
			}
		}
		if !slices.Equal(got, f.fused) {
			t.Errorf("%s fused %v, want %v", f.name, got, f.fused)
		}
		total += len(got)
		for _, p := range unfusedPairs {
			found := false
			for i := 0; i+1 < len(code); i++ {
				if code[i].Base == p.a && code[i].ImmA == p.immA && code[i+1].Base == p.b {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: %s does not lower as two instructions", f.name, p.name)
			}
		}
	}
	if st := eng.Fusion(); st.SitesFused != uint64(total) || total != 6 {
		t.Errorf("Fusion().SitesFused = %d over %d fused sites, want 6", st.SitesFused, total)
	}
}

// TestFusedGapSegmentInvariants checks the lowered shape directly, in
// the function with a loop and in the loop-free one: every gap follows
// a superinstruction, carries no charges and never heads a segment, and
// each superinstruction holds its two constituents.
func TestFusedGapSegmentInvariants(t *testing.T) {
	_, lowered := linkFuseIdioms(t)
	for name, code := range lowered {
		gaps, fused := 0, 0
		for i, in := range code {
			switch {
			case in.Gap:
				gaps++
				if in.Accounting {
					t.Errorf("%s: gap at %d heads a segment or carries charges", name, i)
				}
				if i == 0 || code[i-1].Fused == 0 {
					t.Errorf("%s: gap at %d does not follow a superinstruction", name, i)
				}
			case in.Fused > 0:
				fused++
				if in.Fused != 2 {
					t.Errorf("%s: superinstruction at %d has %d constituents, want 2", name, i, in.Fused)
				}
			}
		}
		if fused != 3 || gaps != 3 {
			t.Errorf("lowered %s has %d superinstructions and %d gaps, want 3 and 3", name, fused, gaps)
		}
	}
}

// TestFusionStepLimitExactCycles is the exact-cycle check for the
// step-limit slow path at fused sites, in a loop-free function: a const,
// a mask+load pair, a cmp+condbr pair and a ret. For every budget m
// that expires mid-code — between the halves of each pair included —
// both engines and the reference must charge exactly the first m
// instructions' cycles; with the budget sufficient, exactly all six.
// The test env's loads charge nothing, so the load adds no cycles.
func TestFusionStepLimitExactCycles(t *testing.T) {
	build := func(env *memEnv) *Function {
		env.Store(0x2000, 8, 3)
		fn := &Function{Name: "sl", NParams: 0, NRegs: 4, Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{
				{Op: OpConst, Dst: 0, Imm: 0x2000},
				{Op: OpMaskGhost, Dst: 1, A: R(0)}, // fuses with the load
				{Op: OpLoad, Dst: 2, A: R(1), Size: 8},
				{Op: OpCmpLT, Dst: 3, A: R(2), B: Imm(5)}, // fuses with the condbr
				{Op: OpCondBr, A: R(3), Blk1: "yes", Blk2: "no"},
			}},
			{Name: "yes", Instrs: []Instr{{Op: OpRet, A: Imm(12)}}},
			{Name: "no", Instrs: []Instr{{Op: OpRet, A: Imm(13)}}},
		}}
		env.addFunc(fn)
		return fn
	}
	// cum[m] is the cycles of the first m instructions.
	cum := []uint64{0, hw.CostALU}
	for _, c := range []uint64{hw.CostMaskCheck, 0, hw.CostALU, hw.CostBranch, hw.CostCall} {
		cum = append(cum, cum[len(cum)-1]+c)
	}

	for m := 1; m <= 8; m++ {
		// Reference.
		refEnv := newMemEnv()
		ip := virref.NewInterp(refEnv)
		ip.MaxSteps = m
		rv, rerr := ip.Call(build(refEnv))

		// Engine.
		engEnv := newMemEnv()
		eng := NewEngine()
		eng.MaxSteps = m
		ev, eerr := eng.Call(engEnv, build(engEnv))

		if eng.Fusion().SitesFused != 2 {
			t.Fatalf("m=%d: fused %d sites, want 2", m, eng.Fusion().SitesFused)
		}
		if m < 6 {
			want := cum[m]
			if !errors.Is(rerr, ErrStepLimit) || !errors.Is(eerr, ErrStepLimit) {
				t.Fatalf("m=%d: want ErrStepLimit from both, got ref=%v eng=%v", m, rerr, eerr)
			}
			if refEnv.clock.Cycles() != want || engEnv.clock.Cycles() != want {
				t.Errorf("m=%d: cycles ref=%d eng=%d, want exactly %d",
					m, refEnv.clock.Cycles(), engEnv.clock.Cycles(), want)
			}
		} else {
			if rerr != nil || eerr != nil {
				t.Fatalf("m=%d: unexpected errors ref=%v eng=%v", m, rerr, eerr)
			}
			if rv != 12 || ev != 12 {
				t.Errorf("m=%d: ret ref=%d eng=%d, want 12", m, rv, ev)
			}
			if refEnv.clock.Cycles() != cum[6] || engEnv.clock.Cycles() != cum[6] {
				t.Errorf("m=%d: cycles ref=%d eng=%d, want exactly %d",
					m, refEnv.clock.Cycles(), engEnv.clock.Cycles(), cum[6])
			}
		}
	}
}

// TestFusionStepLimitSweep sweeps the step budget across a loop holding
// all three idioms (the mask+store/load pairs end segments), forcing
// expiry at every offset within fused segments. The runDiff harness
// checks reference vs engine.
func TestFusionStepLimitSweep(t *testing.T) {
	for maxSteps := 1; maxSteps <= 60; maxSteps++ {
		o := runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			return addParsedModule(t, env, fuseIdiomsSource, "hot"), []uint64{1 << 40}
		})
		if o.errStr != ErrStepLimit.Error() {
			t.Fatalf("MaxSteps=%d: want step limit, got %q", maxSteps, o.errStr)
		}
	}
}

// TestInlineCacheStats pins the inline-cache protocol on a site with
// one target: one miss on first resolution, hits for every repeat of
// the same target, and a fresh miss after an epoch bump flushes the
// lowering.
func TestInlineCacheStats(t *testing.T) {
	build := func(env *memEnv) *Function {
		leaf := NewFunction("leaf", 1)
		leaf.Ret(leaf.Add(leaf.Param(0), Imm(1)))
		env.addFunc(leaf.Fn())

		b := NewFunction("icloop", 1)
		n := b.Param(0)
		fp := b.FuncAddr("leaf")
		i := b.Mov(Imm(0))
		acc := b.Mov(Imm(0))
		b.Br("loop")
		b.NewBlock("loop")
		c := b.CmpLT(i, n)
		b.CondBr(c, "body", "done")
		b.NewBlock("body")
		b.Assign(acc, b.CallInd(fp, acc))
		b.Assign(i, b.Add(i, Imm(1)))
		b.Br("loop")
		b.NewBlock("done")
		b.Ret(acc)
		env.addFunc(b.Fn())
		return b.Fn()
	}

	inner := newMemEnv()
	env := &epochMemEnv{memEnv: inner, epoch: 1}
	fn := build(inner)
	eng := NewEngine()
	if _, err := eng.Call(env, fn, 50); err != nil {
		t.Fatal(err)
	}
	if st := eng.Fusion(); st.ICMisses != 1 || st.ICHits != 49 {
		t.Errorf("after 50 iterations: misses=%d hits=%d, want 1 and 49", st.ICMisses, st.ICHits)
	}

	// An epoch bump discards the lowering — and the caches inside it.
	env.epoch++
	if _, err := eng.Call(env, fn, 50); err != nil {
		t.Fatal(err)
	}
	if st := eng.Fusion(); st.ICMisses != 2 || st.ICHits != 98 {
		t.Errorf("after epoch bump: misses=%d hits=%d, want 2 and 98", st.ICMisses, st.ICHits)
	}
}

// TestInlineCachePolymorphicSite drives one indirect-call site with an
// alternating target: each target misses once and fills an entry, and
// every later call hits — and, crucially, dispatches to the *current*
// target, never another entry's. runDiff separately proves the results
// match the reference.
func TestInlineCachePolymorphicSite(t *testing.T) {
	build := func(env *memEnv) (*Function, []uint64) {
		a := NewFunction("incA", 1)
		a.Ret(a.Add(a.Param(0), Imm(1)))
		addrA := env.addFunc(a.Fn())
		bfn := NewFunction("incB", 1)
		bfn.Ret(bfn.Add(bfn.Param(0), Imm(100)))
		addrB := env.addFunc(bfn.Fn())

		b := NewFunction("poly", 3)
		n := b.Param(0)
		i := b.Mov(Imm(0))
		acc := b.Mov(Imm(0))
		b.Br("loop")
		b.NewBlock("loop")
		c := b.CmpLT(i, n)
		b.CondBr(c, "body", "done")
		b.NewBlock("body")
		odd := b.And(i, Imm(1))
		fp := b.Select(odd, b.Param(1), b.Param(2))
		b.Assign(acc, b.CallInd(fp, acc))
		b.Assign(i, b.Add(i, Imm(1)))
		b.Br("loop")
		b.NewBlock("done")
		b.Ret(acc)
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{10, addrA, addrB}
	}

	env := newMemEnv()
	fn, args := build(env)
	eng := NewEngine()
	ret, err := eng.Call(env, fn, args...)
	if err != nil {
		t.Fatal(err)
	}
	// 5 calls through incA (+1) and 5 through incB (+100).
	if ret != 5*1+5*100 {
		t.Errorf("poly dispatched through stale cache: ret=%d, want 505", ret)
	}
	if st := eng.Fusion(); st.ICHits != 8 || st.ICMisses != 2 {
		t.Errorf("alternating targets: hits=%d misses=%d, want 8 and 2", st.ICHits, st.ICMisses)
	}
	runDiff(t, 0, build)
}

// icCycleSource calls through one indirect-call site once per byte of
// a sequence: byte k selects the k-th entry of a table of function
// pointers. Target k adds 1<<(4k) to the accumulator, so the result
// counts the calls that reached each target.
const icCycleSource = `module iccycle
func t0(1 params) {
entry:
  %r1 = add %r0, 0x1
  ret %r1
}
func t1(1 params) {
entry:
  %r1 = add %r0, 0x10
  ret %r1
}
func t2(1 params) {
entry:
  %r1 = add %r0, 0x100
  ret %r1
}
func t3(1 params) {
entry:
  %r1 = add %r0, 0x1000
  ret %r1
}
func t4(1 params) {
entry:
  %r1 = add %r0, 0x10000
  ret %r1
}
func cycle(3 params) {
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
  %r8 = shl %r7, 0x3
  %r9 = add %r0, %r8
  %r10 = load8 [%r9]
  %r4 = callind %r10(%r4)
  %r3 = add %r3, 0x1
  br loop
done:
  ret %r4
}
`

// TestInlineCacheReplacement drives one site through five targets, more
// than its four entries. The first four misses fill the entries in
// order; the fifth target replaces the first entry, and the next miss
// the second (round-robin): the sequence 0 1 2 3 4 1 2 3 0 4 misses
// on 0 1 2 3 4 and on the second 0, and hits the other four calls.
// Every call must reach its own target.
func TestInlineCacheReplacement(t *testing.T) {
	const table, seqAddr = 0x3000, 0x4000
	seq := []byte{0, 1, 2, 3, 4, 1, 2, 3, 0, 4}
	setup := func(env *memEnv) (*Function, []uint64) {
		fn := addParsedModule(t, env, icCycleSource, "cycle")
		for k := 0; k < 5; k++ {
			addr, _ := env.FuncAddr(fmt.Sprintf("t%d", k))
			env.Store(hw.Virt(table+8*k), 8, addr)
		}
		for i, k := range seq {
			env.Store(hw.Virt(seqAddr+i), 1, uint64(k))
		}
		return fn, []uint64{table, seqAddr, uint64(len(seq))}
	}
	var want uint64
	for _, k := range seq {
		want += 1 << (4 * k)
	}
	if o := runDiff(t, 0, setup); o.ret != want || o.errStr != "" {
		t.Fatalf("reference: ret=%#x err=%q, want %#x", o.ret, o.errStr, want)
	}

	env := newMemEnv()
	fn, args := setup(env)
	eng := NewEngine()
	ret, err := eng.Call(env, fn, args...)
	if err != nil || ret != want {
		t.Fatalf("engine: ret=%#x err=%v, want %#x", ret, err, want)
	}
	if st := eng.Fusion(); st.ICMisses != 6 || st.ICHits != 4 {
		t.Errorf("five targets through four entries: misses=%d hits=%d, want 6 and 4", st.ICMisses, st.ICHits)
	}
}
