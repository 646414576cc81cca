package vir

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/hw"
)

// Tests for the superinstruction fusion pass and the polymorphic inline
// caches (fuse.go). The differential harness (runDiff) already runs
// every diff test on the fusing engine against the reference
// interpreter; this file pins the pass's mechanics: which idioms fuse,
// exact cycle counts when the step budget lands mid-idiom, and
// inline-cache hit/miss/invalidation behavior.

// fuseAllIdiomsSource contains every fusable idiom exactly once per
// location: cmp+condbr (head), const+ALU, mask+store, mask+load,
// add+br back-edge (body), and call+ret (done). The back-edge makes
// "hot" hot under the static heuristic; "leaf" stays cold.
const fuseAllIdiomsSource = `module fuseall
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
  %r1 = add %r1, 0x1
  br head
done:
  %r8 = call leaf(%r1)
  ret %r8
}
`

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

// TestFusionPatterns pins which sites fuse: all six idioms in "hot"
// (and none in the cold, back-edge-free "leaf"), with the observables
// still identical to the reference in both fusion modes.
func TestFusionPatterns(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		return addParsedModule(t, env, fuseAllIdiomsSource, "hot"), []uint64{5}
	})
	if o.errStr != "" {
		t.Fatalf("unexpected error: %q", o.errStr)
	}

	env := newMemEnv()
	fn := addParsedModule(t, env, fuseAllIdiomsSource, "hot")
	eng := NewEngine()
	if _, err := eng.Call(env, fn, 5); err != nil {
		t.Fatal(err)
	}
	sites := make(map[string]int)
	for f, lf := range eng.cache {
		for i := range lf.code {
			if len(lf.code[i].fused) > 0 {
				sites[f.Name]++
			}
		}
	}
	if sites["hot"] != 6 {
		t.Errorf("hot fused %d sites, want 6 (cmp+br, const+mul, mask+store, mask+load, add+br, call+ret)", sites["hot"])
	}
	if sites["leaf"] != 0 {
		t.Errorf("cold leaf fused %d sites, want 0", sites["leaf"])
	}
	if st := eng.Fusion(); st.SitesFused != 6 {
		t.Errorf("Fusion().SitesFused = %d, want 6", st.SitesFused)
	}
}

// TestFusedGapSegmentInvariants checks the lowered shape directly: gap
// slots carry no charges and never head a segment, and the hot function
// actually contains superinstructions.
func TestFusedGapSegmentInvariants(t *testing.T) {
	env := newMemEnv()
	fn := addParsedModule(t, env, fuseAllIdiomsSource, "hot")
	eng := NewEngine()
	if _, err := eng.Call(env, fn, 3); err != nil {
		t.Fatal(err)
	}
	lf := eng.cache[fn]
	if lf == nil {
		t.Fatal("hot not in linked cache")
	}
	gaps, fused := 0, 0
	for i := range lf.code {
		in := &lf.code[i]
		switch {
		case in.op == opFusedGap:
			gaps++
			if in.segLen != 0 || in.n1 != 0 || in.n2 != 0 || in.more != nil || in.charges != nil {
				t.Errorf("gap at %d carries accounting: segLen=%d n1=%d n2=%d more=%v charges=%v",
					i, in.segLen, in.n1, in.n2, in.more, in.charges)
			}
		case len(in.fused) > 0:
			fused++
			if len(in.fused) != 2 {
				t.Errorf("superinstruction at %d has %d constituents, want 2", i, len(in.fused))
			}
		}
	}
	if fused != 6 || gaps != 6 {
		t.Errorf("lowered hot has %d superinstructions and %d gaps, want 6 and 6", fused, gaps)
	}
}

// TestFusionStepLimitExactCycles is the exact-cycle check for the
// step-limit slow path at fused sites: a function of five 1-cycle ALU
// steps (two of them fused const+ALU pairs) and a 4-cycle ret. For
// every budget m that expires mid-code — including budgets landing
// exactly in the middle of a fused idiom — both engines and the
// reference must charge exactly m cycles; with the budget sufficient,
// exactly the full 5*CostALU + CostCall. An unreachable self-loop block
// gives the function the back edge that makes the linker fuse it; it
// never runs, so the cycle arithmetic is that of the straight-line
// entry block.
func TestFusionStepLimitExactCycles(t *testing.T) {
	build := func() *Function {
		return &Function{Name: "sl", NParams: 0, NRegs: 5, Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{
				{Op: OpConst, Dst: 0, Imm: 1},
				{Op: OpConst, Dst: 1, Imm: 2}, // fuses with the add
				{Op: OpAdd, Dst: 2, A: R(0), B: R(1)},
				{Op: OpConst, Dst: 3, Imm: 4}, // fuses with the mul
				{Op: OpMul, Dst: 4, A: R(2), B: R(3)},
				{Op: OpRet, A: R(4)},
			}},
			{Name: "spin", Instrs: []Instr{
				{Op: OpBr, Blk1: "spin"},
			}},
		}}
	}
	const fullCycles = 5*hw.CostALU + hw.CostCall

	for m := 1; m <= 8; m++ {
		// Reference.
		refEnv := newMemEnv()
		refFn := build()
		refEnv.addFunc(refFn)
		ip := NewInterp(refEnv)
		ip.MaxSteps = m
		rv, rerr := ip.Call(refFn)

		// Engine.
		engEnv := newMemEnv()
		engFn := build()
		engEnv.addFunc(engFn)
		eng := NewEngine()
		eng.MaxSteps = m
		ev, eerr := eng.Call(engEnv, engFn)

		if eng.Fusion().SitesFused != 2 {
			t.Fatalf("m=%d: fused %d sites, want 2", m, eng.Fusion().SitesFused)
		}
		if m < 6 {
			want := uint64(m) * hw.CostALU
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
			if refEnv.clock.Cycles() != fullCycles || engEnv.clock.Cycles() != fullCycles {
				t.Errorf("m=%d: cycles ref=%d eng=%d, want exactly %d",
					m, refEnv.clock.Cycles(), engEnv.clock.Cycles(), fullCycles)
			}
		}
	}
}

// TestFusionStepLimitSweep sweeps the step budget across a loop built
// entirely of fusable idioms (including mask+store/load pairs that end
// segments), forcing expiry at every offset within fused segments. The
// runDiff harness checks reference vs engine.
func TestFusionStepLimitSweep(t *testing.T) {
	for maxSteps := 1; maxSteps <= 60; maxSteps++ {
		o := runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			return addParsedModule(t, env, fuseAllIdiomsSource, "hot"), []uint64{1 << 40}
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

// TestFusionCallRetErrorPaths covers the fused call+ret determinism
// corners: the callee erroring, the budget expiring inside the callee,
// and the budget expiring exactly on the ret — all against the
// reference via runDiff.
func TestFusionCallRetErrorPaths(t *testing.T) {
	// A hot caller whose tail is call+ret; the callee divides its work
	// by looping n times, so step budgets can land anywhere inside it.
	const src = `module cr
func spin(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, %r0
  condbr %r2, body, done
body:
  %r1 = add %r1, 0x1
  br head
done:
  ret %r1
}
func hot(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, 0x2
  condbr %r2, body, done
body:
  %r1 = add %r1, 0x1
  br head
done:
  %r3 = call spin(%r0)
  ret %r3
}
`
	for maxSteps := 1; maxSteps <= 50; maxSteps++ {
		runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			return addParsedModule(t, env, src, "hot"), []uint64{6}
		})
	}
	// Callee errors: the fused ret half must not run.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		const errSrc = `module cre
func boom(1 params) {
entry:
  %r1 = callind %r0()
  ret %r1
}
func hot(1 params) {
entry:
  %r1 = const 0x0
  br head
head:
  %r2 = cmplt %r1, 0x2
  condbr %r2, body, done
body:
  %r1 = add %r1, 0x1
  br head
done:
  %r3 = call boom(%r0)
  ret %r3
}
`
		return addParsedModule(t, env, errSrc, "hot"), []uint64{0x41414141}
	})
	// Corrupt-return pivot through a fused call+ret tail.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		env.intrinsics["mark"] = func([]uint64) (uint64, error) { return 0, nil }
		gadget := NewFunction("gadget", 0)
		gadget.Call("mark")
		gadget.Ret(Imm(7))
		gAddr := env.addFunc(gadget.Fn())

		leaf := NewFunction("leaf", 1)
		leaf.Ret(leaf.Param(0))
		env.addFunc(leaf.Fn())

		// Hot function ending in corrupt_return; then call+ret pair.
		vuln := NewFunction("vuln", 1)
		i := vuln.Mov(Imm(0))
		vuln.Br("loop")
		vuln.NewBlock("loop")
		c := vuln.CmpLT(i, Imm(2))
		vuln.CondBr(c, "body", "done")
		vuln.NewBlock("body")
		vuln.Assign(i, vuln.Add(i, Imm(1)))
		vuln.Br("loop")
		vuln.NewBlock("done")
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Ret(vuln.Call("leaf", i))
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{gAddr}
	})
}
