package vir

import "testing"

// benchWorkload builds a call-heavy loop: the shape dominated by the
// costs the pre-linked engine removes (FindBlock per branch, string
// dispatch and fresh frames per call).
func benchWorkload(env *memEnv) *Function {
	leaf := NewFunction("leaf", 2)
	leaf.Ret(leaf.Add(leaf.Param(0), leaf.Param(1)))
	env.addFunc(leaf.Fn())

	b := NewFunction("work", 1)
	n := b.Param(0)
	i := b.Mov(Imm(0))
	acc := b.Mov(Imm(0))
	b.Br("loop")
	b.NewBlock("loop")
	c := b.CmpLT(i, n)
	b.CondBr(c, "body", "done")
	b.NewBlock("body")
	b.Assign(acc, b.Call("leaf", acc, i))
	b.Assign(acc, b.Xor(acc, Imm(0x9e37)))
	b.Assign(i, b.Add(i, Imm(1)))
	b.Br("loop")
	b.NewBlock("done")
	b.Ret(acc)
	env.addFunc(b.Fn())
	return b.Fn()
}

// BenchmarkEngineCallLoop measures the pre-linked engine on the
// call-heavy loop; compare with BenchmarkInterpCallLoop.
func BenchmarkEngineCallLoop(b *testing.B) {
	env := newMemEnv()
	fn := benchWorkload(env)
	eng := NewEngine()
	if _, err := eng.Call(env, fn, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Call(env, fn, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineTracingDisabledZeroAlloc asserts the cost of the tagged
// accounting layer on the engine hot path: with no tracer attached,
// executing pre-linked code — including every per-segment tagged charge
// — performs zero host allocations per call. Each of those charges is
// Clock.Charge's inlined fast path: one flag test and two adds, with
// the tracer, user-phase and zero-value cases on its out-of-line slow
// path.
func TestEngineTracingDisabledZeroAlloc(t *testing.T) {
	env := newMemEnv()
	fn := benchWorkload(env)
	eng := NewEngine()
	// Warm up: first call pays one-time linking and frame-pool growth.
	if _, err := eng.Call(env, fn, 200); err != nil {
		t.Fatal(err)
	}
	if env.clock.TracerAttached() {
		t.Fatal("tracer unexpectedly attached")
	}
	before := env.clock.Cycles()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Call(env, fn, 200); err != nil {
			t.Fatal(err)
		}
	})
	if env.clock.Cycles() == before {
		t.Fatal("workload charged no cycles; hot path not exercised")
	}
	if allocs != 0 {
		t.Errorf("engine hot path allocates %v objects/call with tracing disabled; want 0", allocs)
	}
}

// benchFuseSource is a checksum-style loop built entirely of fusable
// idioms: per iteration a cmp+condbr head, four const+ALU pairs, and an
// add+br back-edge — every dispatch collapses into a superinstruction
// when fusion is on (the BenchmarkEngineKChecksum-class shape; the
// inline-cache win rides the ICLoop pair below).
const benchFuseSource = `module bf
func hot(2 params) {
entry:
  %r2 = mov 0x0
  br loop
loop:
  %r3 = cmplt %r2, %r1
  condbr %r3, body, done
body:
  %r4 = const 0x9e37
  %r5 = xor %r2, %r4
  %r6 = const 0x1f
  %r7 = mul %r5, %r6
  %r8 = const 0x7
  %r9 = shr %r7, %r8
  %r10 = const 0x3
  %r11 = add %r9, %r10
  %r2 = add %r2, 0x1
  br loop
done:
  ret %r2
}
`

// BenchmarkEngineLoopFuse / NoFuse: the linked engine on the fusable
// loop with the superinstruction pass on vs off. Virtual cycles are
// identical in both (fused charges are the concatenation of the
// constituents'); only dispatch count differs.
func BenchmarkEngineLoopFuse(b *testing.B)   { benchFuseLoop(b, true) }
func BenchmarkEngineLoopNoFuse(b *testing.B) { benchFuseLoop(b, false) }

func benchFuseLoop(b *testing.B, fuse bool) {
	m, err := ParseModule(benchFuseSource)
	if err != nil {
		b.Fatal(err)
	}
	env := newMemEnv()
	fn := m.Funcs[0]
	env.addFunc(fn)
	eng := NewEngine()
	eng.SetFuse(fuse)
	if _, err := eng.Call(env, fn, 0x2000, 1000); err != nil {
		b.Fatal(err)
	}
	if st := eng.Fusion(); fuse && st.SitesFused == 0 {
		b.Fatal("fusion enabled but nothing fused")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Call(env, fn, 0x2000, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchICSource hammers indirect-call sites that each see one target:
// with fusion on, every iteration after the first hits the
// inline cache and skips the address resolution and linked-code lookup.
const benchICSource = `module bi
func leaf(1 params) {
entry:
  ret %r0
}
func hot(1 params) {
entry:
  %r1 = funcaddr leaf
  %r2 = mov 0x0
  br loop
loop:
  %r3 = cmplt %r2, %r0
  condbr %r3, body, done
body:
  %r4 = callind %r1(%r2)
  %r5 = callind %r1(%r4)
  %r6 = callind %r1(%r5)
  %r7 = callind %r1(%r6)
  %r8 = add %r2, 0x1
  %r2 = mov %r8
  br loop
done:
  ret 0x0
}
`

// BenchmarkEngineICLoopFuse / NoFuse: the indirect-call loop with the
// inline caches on vs off.
func BenchmarkEngineICLoopFuse(b *testing.B)   { benchICLoop(b, true) }
func BenchmarkEngineICLoopNoFuse(b *testing.B) { benchICLoop(b, false) }

func benchICLoop(b *testing.B, fuse bool) {
	m, err := ParseModule(benchICSource)
	if err != nil {
		b.Fatal(err)
	}
	env := newMemEnv()
	var fn *Function
	for _, g := range m.Funcs {
		env.addFunc(g)
		if g.Name == "hot" {
			fn = g
		}
	}
	eng := NewEngine()
	eng.SetFuse(fuse)
	if _, err := eng.Call(env, fn, 1000); err != nil {
		b.Fatal(err)
	}
	if st := eng.Fusion(); fuse && st.ICHits == 0 {
		b.Fatal("fusion enabled but the inline cache never hit")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Call(env, fn, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpCallLoop is the reference interpreter on the same
// workload.
func BenchmarkInterpCallLoop(b *testing.B) {
	env := newMemEnv()
	fn := benchWorkload(env)
	ip := NewInterp(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Call(fn, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
