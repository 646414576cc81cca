package vir

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
)

// This file is the differential harness between the reference
// interpreter (interp.go) and the pre-linked engine (engine.go). The
// engine's contract is observational equivalence: identical return
// values, identical errors (strings included), and a bit-identical
// virtual clock at every observation point. Every test here runs both
// engines over independently constructed environments and asserts the
// observables match.

// epochMemEnv extends memEnv with the CodeEpochs capability so the
// engine's linked-code cache invalidation can be exercised directly.
type epochMemEnv struct {
	*memEnv
	epoch uint64
}

func (e *epochMemEnv) CodeEpoch() uint64 { return e.epoch }

// diffOutcome captures everything observable about one execution.
// The per-tag ledger is compared beside the total, so a charge that
// lands on the wrong tag diverges even when the cycle count agrees.
type diffOutcome struct {
	ret    uint64
	errStr string
	cycles uint64
	ledger hw.Ledger
	mem    map[hw.Virt]byte
	ports  map[uint16]uint64
}

func outcome(ret uint64, err error, env *memEnv) diffOutcome {
	o := diffOutcome{ret: ret, cycles: env.clock.Cycles(), ledger: env.clock.Ledger(), mem: env.mem, ports: env.ports}
	if err != nil {
		o.errStr = err.Error()
	}
	return o
}

// runDiff executes the function produced by setup under the reference
// interpreter and the linked engine both with and without fusion (each
// against its own fresh env) and fails the test unless every observable
// matches across all three. It returns the common outcome.
func runDiff(t *testing.T, maxSteps int, setup func(env *memEnv) (*Function, []uint64)) diffOutcome {
	t.Helper()
	return runDiffEnv(t, maxSteps, false, func(env *epochMemEnv) (*Function, []uint64) {
		return setup(env.memEnv)
	})
}

// runDiffEpochs is runDiff for code whose bindings move while it runs:
// the engine sees each env with the CodeEpochs capability, and setup
// receives the wrapper, whose epoch an intrinsic may bump.
func runDiffEpochs(t *testing.T, maxSteps int, setup func(env *epochMemEnv) (*Function, []uint64)) diffOutcome {
	t.Helper()
	return runDiffEnv(t, maxSteps, true, setup)
}

func runDiffEnv(t *testing.T, maxSteps int, epochs bool, setup func(env *epochMemEnv) (*Function, []uint64)) diffOutcome {
	t.Helper()

	refEnv := newMemEnv()
	fn, args := setup(&epochMemEnv{memEnv: refEnv, epoch: 1})
	ip := NewInterp(refEnv)
	if maxSteps > 0 {
		ip.MaxSteps = maxSteps
	}
	rv, rerr := ip.Call(fn, args...)
	ref := outcome(rv, rerr, refEnv)

	for _, fuse := range []bool{true, false} {
		wrapped := &epochMemEnv{memEnv: newMemEnv(), epoch: 1}
		engEnv := wrapped.memEnv
		fn2, args2 := setup(wrapped)
		var env Env = engEnv
		if epochs {
			env = wrapped
		}
		eng := NewEngine()
		eng.SetFuse(fuse)
		if maxSteps > 0 {
			eng.MaxSteps = maxSteps
		}
		ev, eerr := eng.Call(env, fn2, args2...)
		got := outcome(ev, eerr, engEnv)
		tag := map[bool]string{true: "engine(fuse)", false: "engine(nofuse)"}[fuse]

		if got.ret != ref.ret {
			t.Errorf("%s return mismatch: %#x, reference %#x", tag, got.ret, ref.ret)
		}
		if got.errStr != ref.errStr {
			t.Errorf("%s error mismatch:\n  engine:    %q\n  reference: %q", tag, got.errStr, ref.errStr)
		}
		if got.cycles != ref.cycles {
			t.Errorf("%s clock mismatch: %d cycles, reference %d", tag, got.cycles, ref.cycles)
		}
		if got.ledger != ref.ledger {
			t.Errorf("%s ledger mismatch:\n  engine:    %v\n  reference: %v", tag, got.ledger, ref.ledger)
		}
		if !reflect.DeepEqual(got.mem, ref.mem) {
			t.Errorf("%s memory state mismatch: %v, reference %v", tag, got.mem, ref.mem)
		}
		if !reflect.DeepEqual(got.ports, ref.ports) {
			t.Errorf("%s port state mismatch: %v, reference %v", tag, got.ports, ref.ports)
		}
		// The step-limit error must keep its identity, not just its text.
		if errors.Is(rerr, ErrStepLimit) != errors.Is(eerr, ErrStepLimit) {
			t.Errorf("%s ErrStepLimit identity mismatch: %v, reference %v", tag, eerr, rerr)
		}
	}
	return ref
}

func TestEngineDiffArithmeticLoop(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
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
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{100}
	})
	if o.ret != 4950 {
		t.Errorf("sumto(100) = %d", o.ret)
	}
	if o.cycles == 0 {
		t.Errorf("no cycles charged")
	}
}

func TestEngineDiffAllBinops(t *testing.T) {
	ops := []Opcode{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE}
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
				b := NewFunction("t", 2)
				d := b.Fn().NRegs
				b.Fn().NRegs++
				b.Fn().Entry().Instrs = append(b.Fn().Entry().Instrs,
					Instr{Op: op, Dst: d, A: R(0), B: R(1)},
					Instr{Op: OpRet, A: R(d)},
				)
				env.addFunc(b.Fn())
				return b.Fn(), []uint64{0xdeadbeef, 13}
			})
		})
	}
}

func TestEngineDiffMemoryAndSelect(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("mix", 2)
		v := b.Load(b.Param(0), 8)
		b.Store(b.Param(1), v, 8)
		b.Memcpy(b.Add(b.Param(1), Imm(8)), b.Param(0), Imm(4))
		c := b.CmpEQ(v, Imm(0))
		b.Ret(b.Select(c, Imm(1), b.Load(b.Param(1), 4)))
		env.addFunc(b.Fn())
		_ = env.Store(0x1000, 8, 0x1122334455667788)
		return b.Fn(), []uint64{0x1000, 0x2000}
	})
}

func TestEngineDiffMaskGhost(t *testing.T) {
	for _, addr := range []uint64{
		0x1000,                       // user: identity
		uint64(hw.GhostBase) + 0x10,  // ghost: escape bit
		uint64(SVAInternalBase) + 8,  // SVA internal: zeroed
		uint64(SVAInternalTop) + 0x8, // above the window
	} {
		runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
			f := &Function{Name: "mask", NParams: 1, NRegs: 2, Blocks: []*Block{
				{Name: "entry", Instrs: []Instr{
					{Op: OpMaskGhost, Dst: 1, A: R(0)},
					{Op: OpRet, A: R(1)},
				}},
			}}
			env.addFunc(f)
			return f, []uint64{addr}
		})
	}
}

func TestEngineDiffCallsAndIntrinsics(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("double", 1)
		callee.Ret(callee.Add(callee.Param(0), callee.Param(0)))
		env.addFunc(callee.Fn())
		env.intrinsics["probe"] = func(args []uint64) (uint64, error) {
			return args[0] + 1, nil
		}
		caller := NewFunction("main", 0)
		a := caller.Call("double", Imm(20))
		bb := caller.Call("probe", a)
		caller.Ret(bb)
		env.addFunc(caller.Fn())
		return caller.Fn(), nil
	})
	if o.ret != 41 {
		t.Errorf("main = %d", o.ret)
	}
}

func TestEngineDiffRecursion(t *testing.T) {
	// Direct recursion exercises the memoize-before-lower path of the
	// linker and the engine's frame stacking.
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("fib", 1)
		n := b.Param(0)
		c := b.CmpLT(n, Imm(2))
		b.CondBr(c, "base", "rec")
		b.NewBlock("base")
		b.Ret(n)
		b.NewBlock("rec")
		a := b.Call("fib", b.Sub(n, Imm(1)))
		bb := b.Call("fib", b.Sub(n, Imm(2)))
		b.Ret(b.Add(a, bb))
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{15}
	})
	if o.ret != 610 {
		t.Errorf("fib(15) = %d", o.ret)
	}
}

func TestEngineDiffCallDepthExceeded(t *testing.T) {
	o := runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("down", 1)
		b.Ret(b.Call("down", b.Add(b.Param(0), Imm(1))))
		env.addFunc(b.Fn())
		return b.Fn(), []uint64{0}
	})
	if o.errStr == "" {
		t.Fatalf("infinite recursion did not error")
	}
}

func TestEngineDiffArityMismatch(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("two", 2)
		callee.Ret(Imm(0))
		env.addFunc(callee.Fn())
		caller := NewFunction("main", 0)
		caller.Ret(caller.Call("two", Imm(1)))
		env.addFunc(caller.Fn())
		return caller.Fn(), nil
	})
}

func TestEngineDiffIndirectCalls(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("leaf", 1)
		callee.Ret(callee.Mul(callee.Param(0), Imm(3)))
		env.addFunc(callee.Fn())
		caller := NewFunction("main", 0)
		fp := caller.FuncAddr("leaf")
		caller.Ret(caller.CallInd(fp, Imm(7)))
		env.addFunc(caller.Fn())
		return caller.Fn(), nil
	})
	// Indirect call to a non-code address.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		caller := NewFunction("main", 1)
		caller.Ret(caller.CallInd(caller.Param(0)))
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{0x41414141}
	})
}

func TestEngineDiffCFIViolations(t *testing.T) {
	// Unlabeled target inside kernel code space.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		gadget := NewFunction("gadget", 0)
		gadget.Ret(Imm(1))
		addr := env.addFunc(gadget.Fn())
		caller := NewFunction("main", 1)
		caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
			Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
			Instr{Op: OpRet, A: R(0)},
		)
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{addr}
	})
	// Target outside kernel code space.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		caller := NewFunction("main", 1)
		caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
			Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
			Instr{Op: OpRet, A: R(0)},
		)
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{0x1000}
	})
	// Labeled target succeeds.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		callee := NewFunction("ok", 0)
		callee.Fn().Entry().Instrs = append(
			[]Instr{{Op: OpCFILabel, Imm: 0xCF1}},
			[]Instr{{Op: OpRet, A: Imm(9)}}...,
		)
		callee.Fn().Labeled = true
		addr := env.addFunc(callee.Fn())
		caller := NewFunction("main", 1)
		caller.Fn().Entry().Instrs = append(caller.Fn().Entry().Instrs,
			Instr{Op: OpCFICallInd, Dst: 0, A: R(0)},
			Instr{Op: OpRet, A: R(0)},
		)
		env.addFunc(caller.Fn())
		return caller.Fn(), []uint64{addr}
	})
}

func TestEngineDiffCorruptReturn(t *testing.T) {
	// Plain ret pivots to the gadget (the ROP case).
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		env.intrinsics["mark"] = func([]uint64) (uint64, error) { return 0, nil }
		gadget := NewFunction("gadget", 0)
		gadget.Call("mark")
		gadget.Ret(Imm(0))
		gAddr := env.addFunc(gadget.Fn())
		vuln := NewFunction("vuln", 1)
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Ret(Imm(0))
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{gAddr}
	})
	// cfi.ret blocks the pivot to non-code space.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		gadget := NewFunction("gadget", 0)
		gadget.Ret(Imm(0))
		env.funcs[gadget.Fn().Name] = gadget.Fn()
		env.addrs[0x41410000] = gadget.Fn()
		vuln := NewFunction("vuln", 1)
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Fn().Entry().Instrs = append(vuln.Fn().Entry().Instrs,
			Instr{Op: OpCFIRet, A: Imm(0)})
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{0x41410000}
	})
	// Pivot to a gadget that expects arguments.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		gadget := NewFunction("gadget", 2)
		gadget.Ret(Imm(0))
		gAddr := env.addFunc(gadget.Fn())
		vuln := NewFunction("vuln", 1)
		vuln.Call(corruptReturnIntrinsic, vuln.Param(0))
		vuln.Ret(Imm(0))
		env.addFunc(vuln.Fn())
		return vuln.Fn(), []uint64{gAddr}
	})
}

func TestEngineDiffFellOffBlock(t *testing.T) {
	// The verifier rejects fallthrough blocks, but the engines must
	// still agree on unverified IR.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		f := &Function{Name: "off", NRegs: 1, Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{{Op: OpConst, Dst: 0, Imm: 7}}},
		}}
		env.addFunc(f)
		return f, nil
	})
	// Empty block.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		f := &Function{Name: "empty", Blocks: []*Block{{Name: "entry"}}}
		env.addFunc(f)
		return f, nil
	})
}

func TestEngineDiffPortIOAsmFuncAddr(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		env.intrinsics["asm:nop"] = func([]uint64) (uint64, error) { return 0, nil }
		b := NewFunction("io", 0)
		b.PortOut(Imm(0x40), Imm(0x99))
		b.Asm("nop")
		b.Ret(b.PortIn(Imm(0x40)))
		env.addFunc(b.Fn())
		return b.Fn(), nil
	})
	// funcaddr of an unknown symbol errors identically.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("m", 0)
		b.Ret(b.FuncAddr("nonexistent"))
		env.addFunc(b.Fn())
		return b.Fn(), nil
	})
	// Unknown intrinsic errors identically.
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		b := NewFunction("m", 0)
		b.Ret(b.Call("no_such_service"))
		env.addFunc(b.Fn())
		return b.Fn(), nil
	})
}

func TestEngineDiffUnimplementedOpcode(t *testing.T) {
	runDiff(t, 0, func(env *memEnv) (*Function, []uint64) {
		f := &Function{Name: "bad", NRegs: 1, Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{
				{Op: Opcode(0x77)},
				{Op: OpRet, A: Imm(0)},
			}},
		}}
		env.addFunc(f)
		return f, nil
	})
}

// TestEngineDiffStepLimit pins the hardest equivalence: when the step
// budget expires, both engines must stop with ErrStepLimit at the same
// virtual-clock reading, even when the engine's budget check fires at a
// segment head and the limit lands mid-segment. Sweeping MaxSteps
// across a window wider than any segment forces every possible
// expiry offset within a segment.
func TestEngineDiffStepLimit(t *testing.T) {
	for maxSteps := 1; maxSteps <= 40; maxSteps++ {
		o := runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			// Long pure runs (8 ALU ops per iteration) with branches
			// between them: segments of length 1, 2, and 9.
			b := NewFunction("spin", 1)
			acc := b.Mov(Imm(1))
			b.Br("loop")
			b.NewBlock("loop")
			b.Assign(acc, b.Add(acc, Imm(1)))
			b.Assign(acc, b.Mul(acc, Imm(3)))
			b.Assign(acc, b.Xor(acc, Imm(0x5a)))
			b.Assign(acc, b.Sub(acc, Imm(2)))
			b.Assign(acc, b.Or(acc, Imm(1)))
			b.Assign(acc, b.And(acc, Imm(0xffff)))
			b.Assign(acc, b.Shl(acc, Imm(1)))
			b.Assign(acc, b.Shr(acc, Imm(1)))
			b.Br("loop")
			env.addFunc(b.Fn())
			return b.Fn(), []uint64{0}
		})
		if o.errStr != ErrStepLimit.Error() {
			t.Fatalf("MaxSteps=%d: want step limit, got %q", maxSteps, o.errStr)
		}
	}
}

// TestEngineDiffStepLimitAcrossEnvOps covers budget expiry in segments
// that end with Env-charged operations (loads), where the final
// instruction's cost lives inside the Env and must not be double- or
// under-charged at the limit.
func TestEngineDiffStepLimitAcrossEnvOps(t *testing.T) {
	for maxSteps := 1; maxSteps <= 24; maxSteps++ {
		runDiff(t, maxSteps, func(env *memEnv) (*Function, []uint64) {
			b := NewFunction("ldspin", 1)
			b.Br("loop")
			b.NewBlock("loop")
			v := b.Load(b.Param(0), 8)
			w := b.Add(v, Imm(1))
			b.Store(b.Param(0), w, 8)
			b.Br("loop")
			env.addFunc(b.Fn())
			return b.Fn(), []uint64{0x1000}
		})
	}
}

// TestStepBudgetPerTopLevelRun covers the Interp.Call fix: a re-entrant
// call (host intrinsic invoking module code through the same engine)
// must share the outer run's step budget instead of refreshing it.
func TestStepBudgetPerTopLevelRun(t *testing.T) {
	// inner burns ~40 steps per invocation; outer loops forever calling
	// the re-entrant intrinsic. With the old per-Call reset, the budget
	// could never expire (each re-entry zeroed the counter).
	build := func(env *memEnv) (*Function, *Function) {
		inner := NewFunction("inner", 0)
		i := inner.Mov(Imm(0))
		inner.Br("loop")
		inner.NewBlock("loop")
		c := inner.CmpLT(i, Imm(10))
		inner.CondBr(c, "body", "done")
		inner.NewBlock("body")
		inner.Assign(i, inner.Add(i, Imm(1)))
		inner.Br("loop")
		inner.NewBlock("done")
		inner.Ret(i)
		env.addFunc(inner.Fn())

		outer := NewFunction("outer", 0)
		outer.Br("loop")
		outer.NewBlock("loop")
		outer.Call("reenter")
		outer.Br("loop")
		env.addFunc(outer.Fn())
		return inner.Fn(), outer.Fn()
	}

	t.Run("reference", func(t *testing.T) {
		env := newMemEnv()
		innerFn, outerFn := build(env)
		ip := NewInterp(env)
		ip.MaxSteps = 5000
		env.intrinsics["reenter"] = func([]uint64) (uint64, error) {
			return ip.Call(innerFn)
		}
		if _, err := ip.Call(outerFn); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("want ErrStepLimit, got %v", err)
		}
		// A fresh top-level run gets a fresh budget.
		if _, err := ip.Call(innerFn); err != nil {
			t.Fatalf("budget did not reset for next top-level run: %v", err)
		}
	})
	t.Run("linked", func(t *testing.T) {
		env := newMemEnv()
		innerFn, outerFn := build(env)
		eng := NewEngine()
		eng.MaxSteps = 5000
		env.intrinsics["reenter"] = func([]uint64) (uint64, error) {
			return eng.Call(env, innerFn)
		}
		if _, err := eng.Call(env, outerFn); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("want ErrStepLimit, got %v", err)
		}
		if _, err := eng.Call(env, innerFn); err != nil {
			t.Fatalf("budget did not reset for next top-level run: %v", err)
		}
	})
}

// rebindSource is the callee of the mid-run rebinding probes: helper
// returns its argument plus one until the "rebind" intrinsic replaces
// it, at the same code address, with a function adding 100 (labeled,
// or unlabeled to make a cfi.callind through it a violation).
const rebindSource = `module rebind
func helper(1 params) {
entry:
  cfi.label 0xcf1
  %r1 = add %r0, 0x1
  cfi.ret %r1
}
`

// addRebind loads rebindSource into env and registers the "rebind"
// intrinsic, which swaps helper for a function adding 100 and bumps
// env's epoch, as loading or planting code does in the kernel.
func addRebind(t *testing.T, env *epochMemEnv, labeled bool) {
	t.Helper()
	helper := addParsedModule(t, env.memEnv, rebindSource, "helper")
	helper.Labeled = true
	addr, _ := env.FuncAddr("helper")
	env.intrinsics["rebind"] = func([]uint64) (uint64, error) {
		b := NewFunction("helper", 1)
		b.Ret(b.Add(b.Param(0), Imm(100)))
		next := b.Fn()
		next.Labeled = labeled
		env.funcs["helper"] = next
		env.addrs[addr] = next
		env.epoch++
		return 0, nil
	}
}

// TestEngineDiffRebindDirectCall rebinds a direct call's callee between
// two calls of one run, from an intrinsic the running function calls
// and from one a callee calls. The engine must run the new callee on
// the second call, as the reference does: 1 + 101, never 1 + 2.
func TestEngineDiffRebindDirectCall(t *testing.T) {
	for _, src := range []string{
		// The running function calls the intrinsic itself.
		`module m
func main(0 params) {
entry:
  %r0 = call helper(0x0)
  %r1 = call rebind()
  %r2 = call helper(0x0)
  %r3 = add %r0, %r2
  ret %r3
}
`,
		// A callee calls it: the caller relinks when the callee returns.
		`module m
func mid(0 params) {
entry:
  %r0 = call rebind()
  ret %r0
}
func main(0 params) {
entry:
  %r0 = call helper(0x0)
  %r1 = call mid()
  %r2 = call helper(0x0)
  %r3 = add %r0, %r2
  ret %r3
}
`,
	} {
		o := runDiffEpochs(t, 0, func(env *epochMemEnv) (*Function, []uint64) {
			addRebind(t, env, true)
			return addParsedModule(t, env.memEnv, src, "main"), nil
		})
		if o.ret != 1+100 || o.errStr != "" {
			t.Errorf("reference: ret=%d err=%q, want 101", o.ret, o.errStr)
		}
	}
}

// TestEngineDiffRebindIndirectCall calls through one indirect-call site
// twice in a loop, rebinding the target's function in between. With
// fusion on, the first call fills the site's inline cache; the second
// must not be served from it. Through cfi.callind, the rebound function
// carries no CFI label, so the second call is a violation: a reused
// verdict would let it through.
func TestEngineDiffRebindIndirectCall(t *testing.T) {
	const src = `module m
func main(0 params) {
entry:
  %r0 = funcaddr helper
  %r1 = mov 0x0
  %r2 = mov 0x0
  br loop
loop:
  %r3 = cmplt %r1, 0x2
  condbr %r3, body, done
body:
  %r4 = CALLIND %r0(%r2)
  %r2 = mov %r4
  %r5 = call rebind()
  %r1 = add %r1, 0x1
  br loop
done:
  ret %r2
}
`
	for _, tc := range []struct {
		callind string
		ret     uint64
		err     string
	}{
		{"callind", 1 + 100, ""},
		{"cfi.callind", 0, "vir: CFI violation in main: target 0xffffffc000000000: target has no CFI label"},
	} {
		o := runDiffEpochs(t, 0, func(env *epochMemEnv) (*Function, []uint64) {
			addRebind(t, env, false)
			main := addParsedModule(t, env.memEnv, strings.Replace(src, "CALLIND", tc.callind, 1), "main")
			main.Labeled = true
			return main, nil
		})
		if o.ret != tc.ret || o.errStr != tc.err {
			t.Errorf("%s: reference ret=%d err=%q, want %d and %q", tc.callind, o.ret, o.errStr, tc.ret, tc.err)
		}
	}
}

// TestEngineDiffRebindFusesCallRet binds a symbol from inside the
// intrinsic it named. After the call returns, the relinked function
// resolves the call and, hot and ending in call+ret, fuses the two:
// the slot the frame resumes at is the fused pair's gap, and the ret
// still runs with the reference's step and charge, budget expiry on the
// ret included.
func TestEngineDiffRebindFusesCallRet(t *testing.T) {
	const src = `module m
func hot(1 params) {
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
  %r3 = call late(%r1)
  ret %r3
}
`
	setup := func(env *epochMemEnv) (*Function, []uint64) {
		hot := addParsedModule(t, env.memEnv, src, "hot")
		env.intrinsics["late"] = func(args []uint64) (uint64, error) {
			b := NewFunction("late", 1)
			b.Ret(b.Add(b.Param(0), Imm(100)))
			env.addFunc(b.Fn())
			env.epoch++
			return args[0] + 7, nil
		}
		return hot, []uint64{3}
	}
	o := runDiffEpochs(t, 0, setup)
	if o.ret != 3+7 || o.errStr != "" {
		t.Fatalf("reference: ret=%d err=%q, want 10", o.ret, o.errStr)
	}
	// entry 2 + head 2 per pass (4 passes) + body 2 per pass (3) +
	// call and ret: the last budget that fails expires on the ret.
	const steps = 2 + 4*2 + 3*2 + 2
	for budget := steps - 2; budget <= steps; budget++ {
		runDiffEpochs(t, budget, setup)
	}
}

// TestEngineEpochInvalidation exercises the linked-code cache rule: a
// symbol that resolved to an intrinsic at link time must re-resolve to
// a real function after the code space's bindings change, provided the
// Env reports a new epoch.
func TestEngineEpochInvalidation(t *testing.T) {
	inner := newMemEnv()
	env := &epochMemEnv{memEnv: inner, epoch: 1}
	inner.intrinsics["helper"] = func([]uint64) (uint64, error) { return 1, nil }

	caller := NewFunction("main", 0)
	caller.Ret(caller.Call("helper"))
	inner.addFunc(caller.Fn())

	eng := NewEngine()
	if got, err := eng.Call(env, caller.Fn()); err != nil || got != 1 {
		t.Fatalf("before binding: got %d, %v", got, err)
	}

	// Bind "helper" in code space. Without an epoch bump the stale
	// linked code legitimately keeps hitting the intrinsic.
	helper := NewFunction("helper", 0)
	helper.Ret(Imm(2))
	inner.addFunc(helper.Fn())
	if got, err := eng.Call(env, caller.Fn()); err != nil || got != 1 {
		t.Fatalf("stale epoch should keep the old linkage: got %d, %v", got, err)
	}

	env.epoch++
	if got, err := eng.Call(env, caller.Fn()); err != nil || got != 2 {
		t.Fatalf("after epoch bump: got %d, %v", got, err)
	}

	// And the reference interpreter agrees with the post-bump result.
	if got, err := NewInterp(env).Call(caller.Fn()); err != nil || got != 2 {
		t.Fatalf("reference: got %d, %v", got, err)
	}
}

// TestEngineZeroAllocSteadyState asserts the acceptance criterion that
// the execution loop itself performs no host allocations once warm:
// loops, direct calls, intrinsic dispatch and an indirect-call site
// whose inline cache holds four targets all run from the arena.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	env := newMemEnv()
	env.intrinsics["sink"] = func(args []uint64) (uint64, error) { return args[0], nil }

	leaf := NewFunction("leaf", 2)
	leaf.Ret(leaf.Add(leaf.Param(0), leaf.Param(1)))
	env.addFunc(leaf.Fn())

	// Four indirect-call targets, their addresses in a table at 0x5000.
	const table = 0x5000
	for k := uint64(0); k < icWays; k++ {
		f := NewFunction(fmt.Sprintf("ind%d", k), 1)
		f.Ret(f.Add(f.Param(0), Imm(k+1)))
		env.Store(hw.Virt(table+8*k), 8, env.addFunc(f.Fn()))
	}

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
	b.Assign(acc, b.Call("sink", acc))
	fp := b.Load(b.Add(Imm(table), b.Shl(b.And(i, Imm(icWays-1)), Imm(3))), 8)
	b.Assign(acc, b.CallInd(fp, acc))
	b.Assign(i, b.Add(i, Imm(1)))
	b.Br("loop")
	b.NewBlock("done")
	b.Ret(acc)
	env.addFunc(b.Fn())

	eng := NewEngine()
	// Warm: link the functions, fill the cache and grow the arena.
	if _, err := eng.Call(env, b.Fn(), 64); err != nil {
		t.Fatal(err)
	}
	if st := eng.Fusion(); st.ICMisses != icWays {
		t.Fatalf("warm-up filled %d inline-cache entries, want %d", st.ICMisses, icWays)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.Call(env, b.Fn(), 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Call allocates %v objects/run, want 0", allocs)
	}
	if st := eng.Fusion(); st.ICMisses != icWays {
		t.Errorf("steady state missed the inline cache: %d misses, want %d", st.ICMisses, icWays)
	}
}

// TestEngineDiffCorpus runs every function of every checked-in .vir
// module — the adversarial attack corpus, the admission-checker corpus,
// and the example modules — under both engines and asserts identical
// observables. Unverifiable functions are skipped only when *both*
// engines would be undefined on them (bad branch targets); everything
// parseable otherwise runs.
func TestEngineDiffCorpus(t *testing.T) {
	var files []string
	for _, dir := range []string{
		"../attack/testdata",
		"../compiler/check/testdata",
		"../../examples/kernel-module",
	} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.vir"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ParseModule(string(text))
			if err != nil {
				t.Skipf("unparseable: %v", err)
			}
			for _, fn := range m.Funcs {
				// Unverifiable IR can crash the reference interpreter
				// (wild branches, out-of-range registers) rather than
				// error; the malformed-but-runnable cases get dedicated
				// diff tests above.
				if VerifyFunction(fn) != nil || fn.NParams > 2 {
					continue
				}
				fn := fn
				t.Run(fn.Name, func(t *testing.T) {
					args := []uint64{0x1000, 8}[:fn.NParams]
					runDiff(t, 100_000, func(env *memEnv) (*Function, []uint64) {
						// Fresh clone per env so any flag mutation
						// stays private.
						mc := m.Clone()
						for _, f := range mc.Funcs {
							env.addFunc(f)
						}
						stubIntrinsics(env)
						return mc.Func(fn.Name), args
					})
				})
			}
		})
	}
}

// stubIntrinsics gives corpus modules the kernel-ish services they
// import, deterministic and side-effect-free.
func stubIntrinsics(env *memEnv) {
	names := []string{"klog_acc", "klog_flush", "cur_pid", "mmap",
		"asm:cli", "asm:sti", "asm:nop", "asm:read_cr3"}
	for _, n := range names {
		n := n
		env.intrinsics[n] = func(args []uint64) (uint64, error) {
			if len(args) > 0 {
				return args[0] ^ uint64(len(n)), nil
			}
			return uint64(len(n)), nil
		}
	}
}

// FuzzEngineDifferential feeds arbitrary module text through the parser
// and, when it verifies, runs every function under both engines and
// requires identical observables. This is the engine's main regression
// net: any divergence the structured tests miss shows up here as a
// one-line reproducer.
func FuzzEngineDifferential(f *testing.F) {
	seeds := []string{
		"module m\nfunc f(0 params) {\nentry:\n  ret 0x0\n}\n",
		"module flow\nfunc loop(1 params) {\nentry:\n  %r1 = const 0x0\n  br head\nhead:\n  %r2 = cmplt %r1, %r0\n  condbr %r2, body, done\nbody:\n  %r1 = add %r1, 0x1\n  br head\ndone:\n  %r3 = select %r2, %r1, 0xff\n  ret %r3\n}\n",
		"module inst\nfunc g(2 params) {\nentry:\n  cfi.label 0xcf1\n  %r2 = maskghost %r0\n  %r3 = load8 [%r2]\n  store8 [%r2], %r3\n  cfi.ret %r3\n}\n",
		"module io\nfunc drv(0 params) {\nentry:\n  %r0 = portin 0x60\n  portout 0x61, %r0\n  %r1 = funcaddr drv\n  %r2 = callind %r1(%r0)\n  ret %r2\n}\n",
		"module c\nfunc rec(1 params) {\nentry:\n  %r1 = call rec(%r0)\n  ret %r1\n}\n",
		"module s\nfunc spin(0 params) {\nentry:\n  br entry\n}\n",
		// Redundant re-masks and a repeated indirect call through one
		// unchanged target register.
		"module r\nfunc h(1 params) {\nentry:\n  cfi.label 0xcf1\n  %r1 = maskghost %r0\n  store8 [%r1], 0x1\n  %r2 = maskghost %r0\n  %r3 = load8 [%r2]\n  %r4 = funcaddr h2\n  %r5 = cfi.callind %r4(%r3)\n  %r6 = cfi.callind %r4(%r5)\n  cfi.ret %r6\n}\nfunc h2(1 params) {\nentry:\n  cfi.label 0xcf1\n  cfi.ret %r0\n}\n",
		// Fusable idioms in a hot (back-edged) function: cmp+condbr,
		// add+br back-edge, const+ALU, and the call+ret pair — the
		// shapes the superinstruction pass collapses (fuse.go).
		"module fu\nfunc leaf(1 params) {\nentry:\n  %r1 = add %r0, 0x1\n  ret %r1\n}\nfunc hot(1 params) {\nentry:\n  %r1 = const 0x0\n  br head\nhead:\n  %r2 = cmplt %r1, %r0\n  condbr %r2, body, done\nbody:\n  %r3 = const 0x3\n  %r4 = mul %r1, %r3\n  %r1 = add %r1, 0x1\n  br head\ndone:\n  %r5 = call leaf(%r1)\n  ret %r5\n}\n",
		// Every operand form (opspec.go): register–register and
		// register–immediate ALU ops and compares, an immediate A on
		// the generic path, and fused compare+branch loop heads of each
		// kind.
		"module forms\nfunc f(2 params) {\nentry:\n  %r2 = mov %r0\n  %r3 = mov 0x7\n  br head\nhead:\n  %r4 = cmplt %r3, %r1\n  condbr %r4, body, tail\nbody:\n  %r2 = add %r2, %r3\n  %r5 = sub %r2, 0x1\n  %r6 = mul %r5, %r3\n  %r7 = and %r6, 0xfff\n  %r8 = or %r7, %r2\n  %r9 = xor %r8, 0x55\n  %r10 = shl %r9, %r3\n  %r11 = shr %r10, 0x3\n  %r12 = shr 0x1000, %r3\n  %r13 = add %r11, %r12\n  %r2 = xor %r2, %r13\n  %r3 = add %r3, 0x1\n  br head\ntail:\n  %r14 = cmpeq %r2, %r0\n  %r15 = cmpne %r2, 0x0\n  %r16 = cmpge %r2, %r1\n  %r17 = cmplt 0x5, %r3\n  %r18 = add %r14, %r15\n  %r19 = add %r16, %r17\n  %r20 = cmpge %r18, 0x1\n  condbr %r20, a, b\na:\n  %r21 = cmpne %r19, %r3\n  condbr %r21, b, c\nb:\n  ret %r18\nc:\n  %r22 = cmpeq %r19, 0x2\n  condbr %r22, b, b\n}\n",
		// Mask+load and mask+store pairs inside a loop.
		"module fm\nfunc mem(1 params) {\nentry:\n  %r1 = const 0x0\n  br head\nhead:\n  %r2 = cmplt %r1, 0x4\n  condbr %r2, body, done\nbody:\n  %r3 = maskghost %r0\n  store8 [%r3], %r1\n  %r4 = maskghost %r0\n  %r5 = load8 [%r4]\n  %r1 = add %r5, 0x1\n  br head\ndone:\n  ret %r1\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Admission-checker corpus modules: in-loop and diamond re-masks,
	// repeated cfi.callind through one target, and mov/arithmetic on
	// masked pointers.
	for _, name := range []string{"redundant.vir", "clean.vir", "launder_mov.vir"} {
		text, err := os.ReadFile(filepath.Join("../compiler/check/testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseModule(text)
		if err != nil {
			return
		}
		// Each function runs twice: as parsed, and with every function
		// labeled the way the loader marks translated code, so
		// cfi.callind and cfi.ret also take their success paths.
		for _, labeled := range []bool{false, true} {
			fuzzEngineDiff(t, m, text, labeled)
		}
	})
}

// fuzzEngineDiff is one FuzzEngineDifferential pass over m.
func fuzzEngineDiff(t *testing.T, m *Module, text string, labeled bool) {
	t.Helper()
	// The whole module must verify, not just the function run: a
	// verified function can call an unverifiable one, on which the
	// reference interpreter crashes instead of failing.
	for _, fn := range m.Funcs {
		if VerifyFunction(fn) != nil {
			return
		}
	}
	for _, fn := range m.Funcs {
		if fn.NParams > 2 || fn.NRegs > 1<<16 {
			continue
		}
		fn := fn
		args := []uint64{0x2000, 5}[:fn.NParams]

		runFuzz := func(engine string) (diffOutcome, error) {
			env := newMemEnv()
			mc := m.Clone()
			for _, g := range mc.Funcs {
				if labeled {
					g.Labeled = true
				}
				env.addFunc(g)
			}
			stubIntrinsics(env)
			target := mc.Func(fn.Name)
			var (
				ret  uint64
				rerr error
			)
			if engine == "reference" {
				ip := NewInterp(env)
				ip.MaxSteps = 20_000
				ret, rerr = ip.Call(target, args...)
			} else {
				eng := NewEngine()
				eng.SetFuse(engine != "linked-nofuse")
				eng.MaxSteps = 20_000
				ret, rerr = eng.Call(env, target, args...)
			}
			return outcome(ret, rerr, env), rerr
		}
		ref, rerr := runFuzz("reference")
		for _, engine := range []string{"linked", "linked-nofuse"} {
			got, eerr := runFuzz(engine)
			if got.ret != ref.ret || got.errStr != ref.errStr || got.cycles != ref.cycles || got.ledger != ref.ledger {
				t.Fatalf("engines diverge on %s (%s, labeled=%v):\n  reference: ret=%#x err=%q cycles=%d ledger=%v\n  linked:    ret=%#x err=%q cycles=%d ledger=%v\nmodule:\n%s",
					fn.Name, engine, labeled, ref.ret, ref.errStr, ref.cycles, ref.ledger, got.ret, got.errStr, got.cycles, got.ledger, text)
			}
			if !reflect.DeepEqual(got.mem, ref.mem) || !reflect.DeepEqual(got.ports, ref.ports) {
				t.Fatalf("engines diverge on %s (%s, labeled=%v) state\nmodule:\n%s", fn.Name, engine, labeled, text)
			}
			if errors.Is(rerr, ErrStepLimit) != errors.Is(eerr, ErrStepLimit) {
				t.Fatalf("ErrStepLimit identity diverges on %s (%s, labeled=%v)\nmodule:\n%s", fn.Name, engine, labeled, text)
			}
		}
	}
}
