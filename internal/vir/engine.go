package vir

import (
	"fmt"

	"repro/internal/hw"
)

// Engine executes IR functions through the pre-linked form produced by
// link.go. It is observably identical to Interp — same return values,
// same errors, bit-identical virtual clock — but re-resolves nothing
// per step: branches are integer jumps, direct calls go through
// pre-resolved callees, deterministic clock charges are batched per
// segment, and frames and argument vectors come from a reusable arena
// so steady-state execution performs no host allocations.
//
// Linked code is cached per *Function. Envs whose symbol bindings can
// change implement CodeEpochs (the kernel's module Env reports the
// code-space epoch); the cache is flushed whenever the epoch moves.
// One Engine must only ever see Envs sharing a single code space (the
// kernel keeps one Engine per booted kernel), and like the rest of the
// simulated machine it is not safe for concurrent use — the kernel's
// cooperative scheduler runs one thread at a time.
//
// Interp remains the reference engine; the differential tests execute
// both over the same inputs and assert identical observables.
type Engine struct {
	// MaxSteps is the per-top-level-run step budget (runaway loop
	// guard), counted exactly like the reference interpreter's.
	MaxSteps int

	cache map[*Function]*linkedFn
	epoch uint64

	// fuse enables the superinstruction fusion pass (fuse.go) and the
	// polymorphic inline caches on indirect-call sites. Always on in
	// production; SetFuse(false) exists for the differential tests and
	// the fuse/no-fuse benchmark pairs.
	fuse   bool
	fstats FusionStats

	// arena backs register frames and call argument vectors as a
	// stack; sp is the high-water bump pointer.
	arena []uint64
	sp    int

	steps  int
	active bool

	// pages is the direct-map window (DirectPages): the last two pages
	// the Env handed out, newest first. Two, because a loop over two
	// buffers alternates between their pages.
	pages [2]directPage
}

// directPage is one entry of the engine's direct-map window.
type directPage struct {
	base hw.Virt
	pg   *[hw.PageSize]byte
}

// NewEngine creates an engine with the default step budget and
// superinstruction fusion enabled.
func NewEngine() *Engine {
	return &Engine{
		MaxSteps: 50_000_000,
		cache:    make(map[*Function]*linkedFn),
		fuse:     true,
	}
}

// ResetCaches discards every cached lowering without changing any
// setting. Snapshot restore calls it: re-linking against the restored
// kernel is pure host-side work the virtual clock never sees, so a
// deterministic cold start is always safe and never stale.
func (e *Engine) ResetCaches() {
	clear(e.cache)
	e.pages = [2]directPage{}
}

// SetFuse switches superinstruction fusion and the indirect-call inline
// caches on or off. Toggling flushes the linked-code cache so the
// setting applies to everything executed afterwards.
func (e *Engine) SetFuse(on bool) {
	if e.fuse == on {
		return
	}
	e.fuse = on
	clear(e.cache)
}

// Fusion returns the cumulative fusion counters: superinstruction
// sites fused by the linker and inline-cache hits/misses.
func (e *Engine) Fusion() FusionStats { return e.fstats }

// Call runs fn with the given arguments against env and returns its
// return value. A re-entrant Call (a host intrinsic invoking module
// code again) shares the outer run's step budget rather than
// refreshing it.
func (e *Engine) Call(env Env, fn *Function, args ...uint64) (uint64, error) {
	e.syncEpoch(env)
	// The clock is hoisted out of the frame loop: one Env interface
	// call per top-level run instead of one per frame.
	clk := env.Clock()
	if e.active {
		return e.exec(env, clk, e.linked(env, fn), args, 0)
	}
	e.active = true
	e.steps = 0
	e.pages = [2]directPage{}
	defer func() { e.active = false }()
	return e.exec(env, clk, e.linked(env, fn), args, 0)
}

// syncEpoch drops every cached lowering when env reports code bindings
// newer than the ones the cache was linked against. Call runs it on
// entry and run after every intrinsic and asm call-out, the only places
// host code that could rebind code runs; a frame whose lowering
// predates e.epoch relinks before it executes another instruction.
func (e *Engine) syncEpoch(env Env) {
	if ce, ok := env.(CodeEpochs); ok {
		if ep := ce.CodeEpoch(); ep != e.epoch {
			clear(e.cache)
			e.epoch = ep
		}
	}
}

// linked returns the cached lowering of fn, linking it on first use.
func (e *Engine) linked(env Env, fn *Function) *linkedFn {
	if lf, ok := e.cache[fn]; ok {
		return lf
	}
	return e.link(env, fn)
}

// carve reserves n words of arena. Frames released by restoring sp
// keep their own slice headers, so arena growth never invalidates a
// live frame.
func (e *Engine) carve(n int) []uint64 {
	need := e.sp + n
	if need > len(e.arena) {
		na := make([]uint64, need+1024)
		copy(na, e.arena[:e.sp])
		e.arena = na
	}
	s := e.arena[e.sp:need:need]
	e.sp = need
	return s
}

// lval evaluates an operand against a register frame.
func lval(regs []uint64, v Value) uint64 {
	if v.IsImm {
		return v.Imm
	}
	return regs[v.Reg]
}

// exec wraps run with the frame epilogue: the arena pointer is
// restored on every way out (returns and errors alike) by the caller
// frame instead of a per-frame defer, which keeps the hot call path
// free of defer bookkeeping.
func (e *Engine) exec(env Env, clk *hw.Clock, lf *linkedFn, args []uint64, depth int) (uint64, error) {
	sp0 := e.sp
	ret, err := e.run(env, clk, lf, args, depth)
	e.sp = sp0
	return ret, err
}

func (e *Engine) run(env Env, clk *hw.Clock, lf *linkedFn, args []uint64, depth int) (uint64, error) {
	if depth > 256 {
		return 0, fmt.Errorf("vir: call depth exceeded in %s", lf.fn.Name)
	}
	if len(args) != lf.fn.NParams {
		return 0, fmt.Errorf("vir: %s wants %d args, got %d", lf.fn.Name, lf.fn.NParams, len(args))
	}
	regs := e.carve(lf.fn.NRegs)
	// Parameters overwrite the frame's head; only the remainder needs
	// zeroing (the arena hands out dirty memory).
	n := copy(regs, args)
	clear(regs[n:])
	code := lf.code
	// ep is the epoch lf was linked under. Any call-out may move
	// e.epoch; the frame then relinks (relink) before going on.
	ep := e.epoch

	var retOverride uint64 // code address forced by __corrupt_return
	overridden := false

	pc := 0
	for {
		in := &code[pc]
		if n := in.segLen; n > 0 {
			// Segment head: account the whole segment's steps and
			// deterministic charges at once. Everything in the segment
			// is certain to execute, so the batch is exact — unless
			// the step budget expires inside it, which falls back to
			// per-instruction accounting to stay bit-identical. The
			// batch was merged per tag at link time, so attribution
			// costs one Charge per tag present, not per instruction,
			// and never a zero charge.
			e.steps += n
			if e.steps > e.MaxSteps {
				return 0, e.stepLimit(clk, regs, code, pc, n)
			}
			if in.n1 != 0 {
				clk.Charge(in.tag1, in.n1)
				if in.n2 != 0 {
					clk.Charge(in.tag2, in.n2)
					for _, tc := range in.more {
						clk.Charge(tc.tag, tc.n)
					}
				}
			}
		}
		switch in.op {
		// --- Operand forms (opspec.go): A is a register, B a register
		// (RR) or an immediate (RI). ---
		case opMovR:
			regs[in.dst] = regs[in.a.Reg]
		case opAddRR:
			regs[in.dst] = regs[in.a.Reg] + regs[in.b.Reg]
		case opAddRI:
			regs[in.dst] = regs[in.a.Reg] + in.b.Imm
		case opSubRR:
			regs[in.dst] = regs[in.a.Reg] - regs[in.b.Reg]
		case opSubRI:
			regs[in.dst] = regs[in.a.Reg] - in.b.Imm
		case opMulRR:
			regs[in.dst] = regs[in.a.Reg] * regs[in.b.Reg]
		case opMulRI:
			regs[in.dst] = regs[in.a.Reg] * in.b.Imm
		case opAndRR:
			regs[in.dst] = regs[in.a.Reg] & regs[in.b.Reg]
		case opAndRI:
			regs[in.dst] = regs[in.a.Reg] & in.b.Imm
		case opOrRR:
			regs[in.dst] = regs[in.a.Reg] | regs[in.b.Reg]
		case opOrRI:
			regs[in.dst] = regs[in.a.Reg] | in.b.Imm
		case opXorRR:
			regs[in.dst] = regs[in.a.Reg] ^ regs[in.b.Reg]
		case opXorRI:
			regs[in.dst] = regs[in.a.Reg] ^ in.b.Imm
		case opShlRR:
			regs[in.dst] = regs[in.a.Reg] << (regs[in.b.Reg] & 63)
		case opShlRI:
			regs[in.dst] = regs[in.a.Reg] << (in.b.Imm & 63)
		case opShrRR:
			regs[in.dst] = regs[in.a.Reg] >> (regs[in.b.Reg] & 63)
		case opShrRI:
			regs[in.dst] = regs[in.a.Reg] >> (in.b.Imm & 63)
		case opCmpEQRR:
			regs[in.dst] = b2u(regs[in.a.Reg] == regs[in.b.Reg])
		case opCmpEQRI:
			regs[in.dst] = b2u(regs[in.a.Reg] == in.b.Imm)
		case opCmpNERR:
			regs[in.dst] = b2u(regs[in.a.Reg] != regs[in.b.Reg])
		case opCmpNERI:
			regs[in.dst] = b2u(regs[in.a.Reg] != in.b.Imm)
		case opCmpLTRR:
			regs[in.dst] = b2u(regs[in.a.Reg] < regs[in.b.Reg])
		case opCmpLTRI:
			regs[in.dst] = b2u(regs[in.a.Reg] < in.b.Imm)
		case opCmpGERR:
			regs[in.dst] = b2u(regs[in.a.Reg] >= regs[in.b.Reg])
		case opCmpGERI:
			regs[in.dst] = b2u(regs[in.a.Reg] >= in.b.Imm)
		case opCmpBrEQRR:
			pc = cmpBr(regs, in, regs[in.a.Reg] == regs[in.b.Reg])
			continue
		case opCmpBrEQRI:
			pc = cmpBr(regs, in, regs[in.a.Reg] == in.b.Imm)
			continue
		case opCmpBrNERR:
			pc = cmpBr(regs, in, regs[in.a.Reg] != regs[in.b.Reg])
			continue
		case opCmpBrNERI:
			pc = cmpBr(regs, in, regs[in.a.Reg] != in.b.Imm)
			continue
		case opCmpBrLTRR:
			pc = cmpBr(regs, in, regs[in.a.Reg] < regs[in.b.Reg])
			continue
		case opCmpBrLTRI:
			pc = cmpBr(regs, in, regs[in.a.Reg] < in.b.Imm)
			continue
		case opCmpBrGERR:
			pc = cmpBr(regs, in, regs[in.a.Reg] >= regs[in.b.Reg])
			continue
		case opCmpBrGERI:
			pc = cmpBr(regs, in, regs[in.a.Reg] >= in.b.Imm)
			continue

		// --- Generic forms: an immediate A, and the rest of the IR. ---
		case OpConst:
			regs[in.dst] = in.imm
		case OpMov:
			regs[in.dst] = lval(regs, in.a)
		case OpAdd:
			regs[in.dst] = lval(regs, in.a) + lval(regs, in.b)
		case OpSub:
			regs[in.dst] = lval(regs, in.a) - lval(regs, in.b)
		case OpMul:
			regs[in.dst] = lval(regs, in.a) * lval(regs, in.b)
		case OpAnd:
			regs[in.dst] = lval(regs, in.a) & lval(regs, in.b)
		case OpOr:
			regs[in.dst] = lval(regs, in.a) | lval(regs, in.b)
		case OpXor:
			regs[in.dst] = lval(regs, in.a) ^ lval(regs, in.b)
		case OpShl:
			regs[in.dst] = lval(regs, in.a) << (lval(regs, in.b) & 63)
		case OpShr:
			regs[in.dst] = lval(regs, in.a) >> (lval(regs, in.b) & 63)
		case OpCmpEQ:
			regs[in.dst] = b2u(lval(regs, in.a) == lval(regs, in.b))
		case OpCmpNE:
			regs[in.dst] = b2u(lval(regs, in.a) != lval(regs, in.b))
		case OpCmpLT:
			regs[in.dst] = b2u(lval(regs, in.a) < lval(regs, in.b))
		case OpCmpGE:
			regs[in.dst] = b2u(lval(regs, in.a) >= lval(regs, in.b))
		case OpSelect:
			if lval(regs, in.a) != 0 {
				regs[in.dst] = lval(regs, in.b)
			} else {
				regs[in.dst] = lval(regs, in.c)
			}
		case OpMaskGhost:
			regs[in.dst] = MaskAddress(lval(regs, in.a))
		case opFuncAddrImm:
			regs[in.dst] = in.imm
		case OpCFILabel:
			// Charge batched at the segment head; a label has no
			// data effect.

		// --- Superinstructions (fuse.go). Charges and step weights
		// were batched at the segment head exactly as the constituents'
		// would have been; the handlers execute the idiom sequentially
		// and step over the consumed gap slot. ---
		case opFusedConstALU:
			regs[in.dst] = in.imm
			av, bv := lval(regs, in.a), lval(regs, in.b)
			var v uint64
			switch in.op2 {
			case OpAdd:
				v = av + bv
			case OpSub:
				v = av - bv
			case OpMul:
				v = av * bv
			case OpAnd:
				v = av & bv
			case OpOr:
				v = av | bv
			case OpXor:
				v = av ^ bv
			case OpShl:
				v = av << (bv & 63)
			case OpShr:
				v = av >> (bv & 63)
			case OpCmpEQ:
				v = b2u(av == bv)
			case OpCmpNE:
				v = b2u(av != bv)
			case OpCmpLT:
				v = b2u(av < bv)
			case OpCmpGE:
				v = b2u(av >= bv)
			}
			regs[in.t1] = v
			pc++ // skip the gap

		case opFusedCmpBr:
			av, bv := lval(regs, in.a), lval(regs, in.b)
			var c bool
			switch in.op2 {
			case OpCmpEQ:
				c = av == bv
			case OpCmpNE:
				c = av != bv
			case OpCmpLT:
				c = av < bv
			case OpCmpGE:
				c = av >= bv
			}
			// The comparison result may be live past the branch.
			regs[in.dst] = b2u(c)
			if c {
				pc = in.t1
			} else {
				pc = in.t2
			}
			continue

		case opFusedAddBr:
			regs[in.dst] = lval(regs, in.a) + lval(regs, in.b)
			pc = in.t1
			continue

		case opFusedSubBr:
			regs[in.dst] = lval(regs, in.a) - lval(regs, in.b)
			pc = in.t1
			continue

		case opFusedMaskLoad:
			m := hw.Virt(MaskAddress(lval(regs, in.a)))
			regs[in.dst] = uint64(m)
			if pg := e.window(m, in.size); pg != nil {
				clk.Charge(hw.TagMemAccess, hw.CostMemAccess)
				regs[in.t1] = loadLE(pg, m, in.size)
			} else {
				v, err := e.loadSlow(env, clk, m, in.size)
				if err != nil {
					return 0, err
				}
				regs[in.t1] = v
			}
			pc++ // skip the gap

		case opFusedMaskStore:
			m := hw.Virt(MaskAddress(lval(regs, in.a)))
			regs[in.dst] = uint64(m)
			if pg := e.window(m, in.size); pg != nil {
				clk.Charge(hw.TagMemAccess, hw.CostMemAccess)
				storeLE(pg, m, in.size, lval(regs, in.b))
			} else if err := e.storeSlow(env, clk, m, in.size, lval(regs, in.b)); err != nil {
				return 0, err
			}
			pc++ // skip the gap

		case opFusedCallRet:
			asp := e.sp
			argv := e.carve(len(in.args))
			for i, a := range in.args {
				argv[i] = lval(regs, a)
			}
			ret, err := e.exec(env, clk, in.callee, argv, depth+1)
			e.sp = asp
			if err != nil {
				return 0, err
			}
			regs[in.dst] = ret
			// The ret half leaves this frame, so a lowering the callee
			// made stale is never consulted again.
			return e.fusedRet(env, clk, regs, in.a, overridden, retOverride, depth)

		case opFusedGap:
			// Unreachable by construction: gaps are never branch
			// targets and fused handlers step over them.
			return 0, fmt.Errorf("vir: internal error: executed fused gap in %s", lf.fn.Name)

		case OpLoad:
			va := hw.Virt(lval(regs, in.a))
			if pg := e.window(va, in.size); pg != nil {
				clk.Charge(hw.TagMemAccess, hw.CostMemAccess)
				regs[in.dst] = loadLE(pg, va, in.size)
			} else {
				v, err := e.loadSlow(env, clk, va, in.size)
				if err != nil {
					return 0, err
				}
				regs[in.dst] = v
			}
		case OpStore:
			va := hw.Virt(lval(regs, in.a))
			if pg := e.window(va, in.size); pg != nil {
				clk.Charge(hw.TagMemAccess, hw.CostMemAccess)
				storeLE(pg, va, in.size, lval(regs, in.b))
			} else if err := e.storeSlow(env, clk, va, in.size, lval(regs, in.b)); err != nil {
				return 0, err
			}
		case OpMemcpy:
			if err := env.Memcpy(hw.Virt(lval(regs, in.a)), hw.Virt(lval(regs, in.b)), int(lval(regs, in.c))); err != nil {
				return 0, err
			}

		case OpBr:
			pc = in.t1
			continue
		case OpCondBr:
			if lval(regs, in.a) != 0 {
				pc = in.t1
			} else {
				pc = in.t2
			}
			continue

		case OpCall:
			asp := e.sp
			argv := e.carve(len(in.args))
			for i, a := range in.args {
				argv[i] = lval(regs, a)
			}
			ret, err := e.exec(env, clk, in.callee, argv, depth+1)
			e.sp = asp
			if err != nil {
				return 0, err
			}
			regs[in.dst] = ret
			if e.epoch != ep {
				// The call resolved before, so whether it fuses with
				// the slot after it cannot change: that slot is no gap.
				lf, code, ep = e.relink(env, lf)
			}

		case opCallIntrinsic:
			// argv is arena-backed and only valid for the duration of
			// the intrinsic call; host intrinsics must not retain it.
			asp := e.sp
			argv := e.carve(len(in.args))
			for i, a := range in.args {
				argv[i] = lval(regs, a)
			}
			ret, err := env.Intrinsic(in.sym, argv)
			e.sp = asp
			if err != nil {
				return 0, err
			}
			regs[in.dst] = ret
			if e.syncEpoch(env); e.epoch != ep {
				// The symbol may resolve now, and fuse with a ret
				// after it: that ret is all that is left to run.
				if lf, code, ep = e.relink(env, lf); code[pc+1].op == opFusedGap {
					return e.fusedRet(env, clk, regs, code[pc].a, overridden, retOverride, depth)
				}
			}

		case opCorruptReturn:
			if len(in.args) != 1 {
				return 0, fmt.Errorf("vir: %s wants 1 arg", corruptReturnIntrinsic)
			}
			retOverride = lval(regs, in.args[0])
			overridden = true
			regs[in.dst] = 0

		case OpCallInd, OpCFICallInd:
			target := lval(regs, in.a)
			var clf *linkedFn
			if in.ic != nil {
				clf = in.ic.lookup(target)
			}
			if clf != nil {
				// Inline-cache hit: the entry holds the resolution and,
				// at a cfi.callind site, the passed CFI check, both made
				// under the bindings this lowering was linked against.
				e.fstats.ICHits++
			} else {
				if in.op == OpCFICallInd {
					if err := cfiCheck(env, lf.fn.Name, target); err != nil {
						return 0, err
					}
				}
				callee, ok := env.FuncByAddr(target)
				if !ok {
					return 0, fmt.Errorf("vir: indirect call in %s to non-code address %#x", lf.fn.Name, target)
				}
				clf = e.linked(env, callee)
				if in.ic != nil {
					in.ic.fill(target, clf)
					e.fstats.ICMisses++
				}
			}
			asp := e.sp
			argv := e.carve(len(in.args))
			for i, a := range in.args {
				argv[i] = lval(regs, a)
			}
			ret, err := e.exec(env, clk, clf, argv, depth+1)
			e.sp = asp
			if err != nil {
				return 0, err
			}
			regs[in.dst] = ret
			if e.epoch != ep {
				// An indirect call never fuses, so the next slot is
				// never a gap.
				lf, code, ep = e.relink(env, lf)
			}

		case OpRet, OpCFIRet:
			if overridden {
				target := retOverride
				if in.op == OpCFIRet {
					if err := cfiCheck(env, lf.fn.Name, target); err != nil {
						return 0, err
					}
				}
				return e.pivot(env, clk, target, depth)
			}
			return lval(regs, in.a), nil

		case OpPortIn:
			v, err := env.PortIn(uint16(lval(regs, in.a)))
			if err != nil {
				return 0, err
			}
			regs[in.dst] = v
		case OpPortOut:
			if err := env.PortOut(uint16(lval(regs, in.a)), lval(regs, in.b)); err != nil {
				return 0, err
			}

		case OpAsm:
			if _, err := env.Intrinsic(in.sym, nil); err != nil {
				return 0, err
			}
			if e.syncEpoch(env); e.epoch != ep {
				// asm never fuses, so the next slot is never a gap.
				lf, code, ep = e.relink(env, lf)
			}

		case OpFuncAddr:
			// Unresolved at link time: resolve per execution like the
			// reference, charging only on success.
			addr, ok := env.FuncAddr(in.sym)
			if !ok {
				return 0, fmt.Errorf("vir: funcaddr of unknown symbol %q", in.sym)
			}
			regs[in.dst] = addr
			clk.Charge(hw.TagEngine, hw.CostALU)

		case opFellOff:
			return 0, fmt.Errorf("vir: fell off block %s/%s", lf.fn.Name, in.sym)

		default: // opUnimpl
			return 0, fmt.Errorf("vir: unimplemented opcode %v", Opcode(in.imm))
		}
		pc++
	}
}

// cmpBr finishes a fused cmp+condbr: it writes the comparison result,
// which may be live past the branch, and returns the branch target.
func cmpBr(regs []uint64, in *linkedInstr, c bool) int {
	if c {
		regs[in.dst] = 1
		return in.t1
	}
	regs[in.dst] = 0
	return in.t2
}

// window returns the page of the engine's direct-map window
// (DirectPages) that holds the whole access [va, va+size), or nil. A
// hit does what Env.Load or Env.Store would: the CostMemAccess charge,
// then the page's bytes. The check inlines into the hot loop; a miss
// goes through loadSlow or storeSlow.
func (e *Engine) window(va hw.Virt, size int) *[hw.PageSize]byte {
	base := hw.PageOf(va)
	if int(va-base)+size <= hw.PageSize {
		if e.pages[0].base == base {
			return e.pages[0].pg
		}
		if e.pages[1].base == base {
			return e.pages[1].pg
		}
	}
	return nil
}

// loadSlow is a load the window missed: it asks env for the page, and
// loads through env when env does not serve it.
func (e *Engine) loadSlow(env Env, clk *hw.Clock, va hw.Virt, size int) (uint64, error) {
	pg := e.fetchPage(env, va, size)
	if pg == nil {
		return env.Load(va, size)
	}
	clk.Charge(hw.TagMemAccess, hw.CostMemAccess)
	return loadLE(pg, va, size), nil
}

// storeSlow is a store the window missed.
func (e *Engine) storeSlow(env Env, clk *hw.Clock, va hw.Virt, size int, v uint64) error {
	pg := e.fetchPage(env, va, size)
	if pg == nil {
		return env.Store(va, size, v)
	}
	clk.Charge(hw.TagMemAccess, hw.CostMemAccess)
	storeLE(pg, va, size, v)
	return nil
}

// fetchPage asks env for the page holding the access [va, va+size) and
// makes it the window's newest entry. It returns nil when the access
// crosses a page or env does not serve the page.
func (e *Engine) fetchPage(env Env, va hw.Virt, size int) *[hw.PageSize]byte {
	base := hw.PageOf(va)
	dp, ok := env.(DirectPages)
	if !ok || int(va-base)+size > hw.PageSize {
		return nil
	}
	pg := dp.DirectPage(base)
	if pg != nil {
		e.pages[1], e.pages[0] = e.pages[0], directPage{base, pg}
	}
	return pg
}

// loadLE reads a little-endian scalar of size bytes at va's offset in pg.
func loadLE(pg *[hw.PageSize]byte, va hw.Virt, size int) uint64 {
	off := int(va & (hw.PageSize - 1))
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(pg[off+i])
	}
	return v
}

// storeLE writes a little-endian scalar of size bytes at va's offset in
// pg.
func storeLE(pg *[hw.PageSize]byte, va hw.Virt, size int, v uint64) {
	off := int(va & (hw.PageSize - 1))
	for i := 0; i < size; i++ {
		pg[off+i] = byte(v >> (8 * i))
	}
}

// relink replaces a running frame's lowering after a call-out moved
// the code epoch: the frame goes on at the same pc in a lowering of
// the same function linked against the bindings now current. Block
// offsets do not depend on bindings, so every pc keeps its meaning;
// fusion choices do, which the callers handle (a call that now
// resolves may have fused with the ret after it).
func (e *Engine) relink(env Env, lf *linkedFn) (*linkedFn, []linkedInstr, uint64) {
	lf = e.linked(env, lf.fn)
	return lf, lf.code, e.epoch
}

// fusedRet is the ret half of a fused call+ret, run after the callee
// has returned: its step and charge come after the callee, exactly
// where the reference interpreter puts them (so a budget expiring
// inside the callee, or on the ret itself, lands on the same
// instruction with the same cycles).
func (e *Engine) fusedRet(env Env, clk *hw.Clock, regs []uint64, a Value, overridden bool, retOverride uint64, depth int) (uint64, error) {
	e.steps++
	if e.steps > e.MaxSteps {
		return 0, ErrStepLimit
	}
	clk.Charge(hw.TagEngine, hw.CostCall)
	if overridden {
		return e.pivot(env, clk, retOverride, depth)
	}
	return lval(regs, a), nil
}

// pivot transfers control to a smashed return address (the ROP case):
// the target runs as a zero-argument function in place of the return.
func (e *Engine) pivot(env Env, clk *hw.Clock, target uint64, depth int) (uint64, error) {
	gadget, ok := env.FuncByAddr(target)
	if !ok {
		return 0, fmt.Errorf("vir: return pivots to non-code address %#x", target)
	}
	if gadget.NParams != 0 {
		return 0, fmt.Errorf("vir: return pivot target %s expects arguments", gadget.Name)
	}
	return e.exec(env, clk, e.linked(env, gadget), nil, depth+1)
}

// stepLimit is the exact slow path for a budget expiring inside a
// segment: the reference interpreter executes (and charges) each
// instruction until the step counter crosses MaxSteps, so replay the
// remaining budget per instruction. Only non-final logical steps of a
// segment can be involved, and those are pure by construction — fused
// sites expand back into their constituents through the fusion table
// (linkedInstr.fused), gap slots weigh nothing and are skipped, and a
// segment-final impure constituent (a fused pair's load/store/branch
// half, or a call+ret's call) is past the replayable range because
// nExec is strictly below the segment's step weight.
func (e *Engine) stepLimit(clk *hw.Clock, regs []uint64, code []linkedInstr, pc, segLen int) error {
	nExec := e.MaxSteps - (e.steps - segLen)
	for i := pc; nExec > 0; i++ {
		in := &code[i]
		if in.op == opFusedGap {
			continue
		}
		if len(in.fused) > 0 {
			for j := range in.fused {
				if nExec == 0 {
					break
				}
				c := &in.fused[j]
				for _, tc := range c.charges {
					clk.Charge(tc.tag, tc.n)
				}
				pureEval(regs, c)
				nExec--
			}
			continue
		}
		for _, tc := range in.charges {
			clk.Charge(tc.tag, tc.n)
		}
		pureEval(regs, in)
		nExec--
	}
	return ErrStepLimit
}

// pureEval executes one pure (non-faulting, non-calling, non-branching)
// instruction by its generic opcode (base), whatever operand form it
// was lowered to. It must stay in sync with the corresponding cases of
// the Engine.run switch.
func pureEval(regs []uint64, in *linkedInstr) {
	switch in.base {
	case OpConst:
		regs[in.dst] = in.imm
	case OpMov:
		regs[in.dst] = lval(regs, in.a)
	case OpAdd:
		regs[in.dst] = lval(regs, in.a) + lval(regs, in.b)
	case OpSub:
		regs[in.dst] = lval(regs, in.a) - lval(regs, in.b)
	case OpMul:
		regs[in.dst] = lval(regs, in.a) * lval(regs, in.b)
	case OpAnd:
		regs[in.dst] = lval(regs, in.a) & lval(regs, in.b)
	case OpOr:
		regs[in.dst] = lval(regs, in.a) | lval(regs, in.b)
	case OpXor:
		regs[in.dst] = lval(regs, in.a) ^ lval(regs, in.b)
	case OpShl:
		regs[in.dst] = lval(regs, in.a) << (lval(regs, in.b) & 63)
	case OpShr:
		regs[in.dst] = lval(regs, in.a) >> (lval(regs, in.b) & 63)
	case OpCmpEQ:
		regs[in.dst] = b2u(lval(regs, in.a) == lval(regs, in.b))
	case OpCmpNE:
		regs[in.dst] = b2u(lval(regs, in.a) != lval(regs, in.b))
	case OpCmpLT:
		regs[in.dst] = b2u(lval(regs, in.a) < lval(regs, in.b))
	case OpCmpGE:
		regs[in.dst] = b2u(lval(regs, in.a) >= lval(regs, in.b))
	case OpSelect:
		if lval(regs, in.a) != 0 {
			regs[in.dst] = lval(regs, in.b)
		} else {
			regs[in.dst] = lval(regs, in.c)
		}
	case OpMaskGhost:
		regs[in.dst] = MaskAddress(lval(regs, in.a))
	case opFuncAddrImm:
		regs[in.dst] = in.imm
	case OpCFILabel:
		// no data effect
	}
}
