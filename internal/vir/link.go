package vir

import (
	"fmt"

	"repro/internal/hw"
)

// This file is the linking/lowering stage of the pre-linked execution
// engine (engine.go). It compiles a *Function once into a flat,
// pre-resolved form so the hot loop never re-derives anything the IR
// already fixes:
//
//   - block names become integer code offsets (no FindBlock per branch),
//   - direct-call symbols become *linkedFn pointers or pre-interned
//     intrinsic names (no double string-map lookup per call),
//   - funcaddr symbols become immediates where the code space already
//     binds them,
//   - the deterministic clock charges of each straight-line segment are
//     summed at link time — per cost tag, so the ledger attribution
//     survives batching — and applied with one Clock.Charge per tag
//     present in the segment (at most a handful),
//   - operands whose kind the IR fixes get opcodes that read them one
//     fixed way: register–register or register–immediate (opspec.go).
//
// Lowered code must stay *observably identical* to the reference
// interpreter (virref.Interp): same return values, same errors
// (strings included), and a bit-identical virtual clock at every
// observation point. The clock is observable wherever the Env is
// entered (loads, stores, memcpy, port I/O, intrinsics) and wherever
// execution can stop (errors). The linker therefore batches charges
// per SEGMENT, not per block: a
// segment is a maximal instruction run in which only the final
// instruction may fault, call out, or transfer control, so by the time
// a segment is entered every instruction in it is certain to execute
// and the summed charge is exact. The step budget is also accounted
// per segment, with a per-instruction slow path when the budget
// expires inside one (engine.go).

// CodeEpochs is an optional Env capability: an Env whose code bindings
// can change (new translations laid out, foreign code planted) reports
// a monotonically increasing epoch, and the engine flushes its linked-
// code cache whenever the epoch moves — mirroring the walk-cache
// invalidation discipline of the memory fast paths. Envs that do not
// implement it are assumed to have static symbol bindings for the
// lifetime of the Engine.
type CodeEpochs interface {
	CodeEpoch() uint64
}

// DirectPages is an optional Env capability for memory the engine may
// access itself. DirectPage returns the page holding addr when, for
// every address in that page, Load and Store are exactly a
// CostMemAccess charge on TagMemAccess followed by a little-endian
// read or write of the page's bytes; it returns nil otherwise (an
// untouched page included: the Env's own Store allocates it). The
// kernel's module Env serves its direct map this way. A page stays
// valid until Engine.ResetCaches, which snapshot restore calls; one
// Engine must see Envs sharing one direct map, as it must for the
// code space.
type DirectPages interface {
	DirectPage(addr hw.Virt) *[hw.PageSize]byte
}

// Internal pseudo-opcodes produced by the linker. They live above the
// public opcode range and never appear in IR.
const (
	// opFellOff: execution ran past the end of a block (Sym holds the
	// block name for the error message).
	opFellOff Opcode = 0x80 + iota
	// opCallIntrinsic: a direct call whose symbol did not resolve in
	// the code space at link time — dispatches straight to
	// Env.Intrinsic.
	opCallIntrinsic
	// opCorruptReturn: the __corrupt_return stack-smash model.
	opCorruptReturn
	// opFuncAddrImm: a funcaddr whose symbol resolved at link time;
	// Imm holds the code address (pure, CostALU folded).
	opFuncAddrImm
	// opUnimpl: an opcode the linker does not know; reproduces the
	// reference "unimplemented opcode" error at execution time.
	opUnimpl
)

// linkedInstr is one lowered instruction. Branch targets are code
// indices, direct calls carry the resolved callee, and segment heads
// carry the batched step/clock accounting for their segment.
type linkedInstr struct {
	// The fields the hot loop reads on every instruction come first,
	// so that executing one touches as few cache lines of its 272-byte
	// slot as it can; keep the struct from growing, since every fetch
	// multiplies pc by its size.
	op Opcode
	// op2 is the comparison opcode of a fused cmp+condbr pair.
	op2 Opcode
	// base is the opcode op was specialized from (opspec.go); pureEval
	// and the step-limit replay dispatch on it.
	base Opcode
	// tag1/n1 and tag2/n2 are a segment head's first two batched
	// charges in first-occurrence order; more holds any further tag.
	// n1 == 0 means the segment charges nothing up front, n2 == 0 that
	// it charges one tag.
	tag1, tag2 hw.Tag
	// segLen > 0 marks a segment head; it counts the instructions in
	// the segment, and n1, n2 and more sum their charges per tag (built
	// at link time, so the hot loop applies the batch without
	// un-batching).
	segLen int
	n1, n2 uint64
	dst    int
	a      Value
	b      Value
	t1, t2 int       // lowered Blk1/Blk2 (indices into linkedFn.code)
	callee *linkedFn // pre-resolved direct-call target
	// ic is an indirect-call site's polymorphic inline cache (fuse.go),
	// allocated at link time for every indirect call site. It lives
	// inside this lowering, so it can never outlive the code-space
	// bindings it captured.
	ic   *icSite
	args []Value
	c    Value
	imm  uint64
	size int
	sym  string

	// fused holds the original lowered constituents of a
	// superinstruction, in execution order — the fusion table the
	// step-limit slow path replays per-instruction charges from. Nil on
	// ordinary instructions.
	fused []linkedInstr
	// charges is this instruction's own deterministic pre-charge (the
	// cycles virref.Interp advances unconditionally before the
	// instruction can fail or call out), broken down by cost tag.
	// It aliases a shared per-opcode slice (instrCharges) — never
	// mutate it — except on superinstructions, where it is the
	// link-time concatenation of the constituents' shared slices.
	charges []tagCharge
	more    []tagCharge
}

// tagCharge is one (tag, cycles) component of a deterministic charge.
type tagCharge struct {
	tag hw.Tag
	n   uint64
}

// linkedFn is a function lowered to a flat code array.
type linkedFn struct {
	fn   *Function
	code []linkedInstr
}

// Shared per-opcode charge slices: every linkedInstr of a given shape
// aliases the same slice, so lowering allocates nothing per instruction
// and the hot paths never build charge lists at run time.
var (
	chargeALU     = []tagCharge{{hw.TagEngine, hw.CostALU}}
	chargeMask    = []tagCharge{{hw.TagSandbox, hw.CostMaskCheck}}
	chargeLabel   = []tagCharge{{hw.TagCFI, hw.CostCFILabel}}
	chargeBranch  = []tagCharge{{hw.TagEngine, hw.CostBranch}}
	chargeCall    = []tagCharge{{hw.TagEngine, hw.CostCall}}
	chargeCFICall = []tagCharge{{hw.TagEngine, hw.CostCall}, {hw.TagCFI, hw.CostCFICheck}}
)

// instrCharges returns the deterministic pre-charge of a lowered
// instruction: the cycles virref.Interp advances before the
// instruction can observably fail or enter the Env, per cost tag.
// Instructions whose charges are conditional (funcaddr resolved at run
// time) or internal to the Env (loads, stores, port I/O) charge zero
// here. Composite charges (CFI call/return: base call + label check)
// list one component per tag, in the order virref.Interp charges
// them.
func instrCharges(op Opcode) []tagCharge {
	switch op {
	case OpConst, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE, OpSelect,
		opFuncAddrImm:
		return chargeALU
	case OpMaskGhost:
		return chargeMask
	case OpCFILabel:
		return chargeLabel
	case OpBr, OpCondBr:
		return chargeBranch
	case OpCall, opCallIntrinsic, opCorruptReturn, OpCallInd, OpRet:
		return chargeCall
	case OpCFICallInd, OpCFIRet:
		return chargeCFICall
	}
	return nil
}

// endsSegment reports whether a lowered instruction must terminate its
// segment: anything that can fault, enter the Env, or transfer control.
// Only such instructions may sit at a position where the following
// instruction's execution is not yet certain.
func endsSegment(op Opcode) bool {
	switch op {
	case OpConst, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE, OpSelect,
		OpMaskGhost, OpCFILabel, opFuncAddrImm:
		return false
	}
	return true
}

// link lowers fn against env's current symbol bindings. Direct calls
// and funcaddrs resolve through the same Env lookups the reference
// interpreter performs per step; with epoch invalidation (CodeEpochs)
// the bindings cannot go stale between linking and execution.
//
// Branches to unknown blocks panic: virref.Interp crashes on them too
// (FindBlock returns nil), and every translator-admitted function has
// verified branch targets.
func (e *Engine) link(env Env, fn *Function) *linkedFn {
	lf := &linkedFn{fn: fn}
	// Memoize before lowering so recursive and mutually recursive
	// direct calls link to the function being lowered.
	e.cache[fn] = lf

	// Pass 1: assign flat code offsets. A block that does not end in a
	// terminator gets a trailing opFellOff slot so running off its end
	// reproduces the reference error (and consumes a step, exactly as
	// the reference loop iteration that detects it does).
	starts := make(map[string]int, len(fn.Blocks))
	off := 0
	for _, b := range fn.Blocks {
		starts[b.Name] = off
		off += len(b.Instrs)
		if n := len(b.Instrs); n == 0 || !isTerminator(b.Instrs[n-1].Op) {
			off++
		}
	}
	lf.code = make([]linkedInstr, 0, off)

	// Pass 2: lower instructions.
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			lf.code = append(lf.code, e.lower(env, fn, b, i, starts))
		}
		if n := len(b.Instrs); n == 0 || !isTerminator(b.Instrs[n-1].Op) {
			lf.code = append(lf.code, linkedInstr{op: opFellOff, sym: b.Name})
		}
	}

	// Pass 2.5: superinstruction fusion (fuse.go). Runs before segment
	// accounting so fused charge lists and step weights batch exactly
	// like their constituents would have.
	isStart := make([]bool, len(lf.code))
	for _, b := range fn.Blocks {
		isStart[starts[b.Name]] = true
	}
	e.fusePass(lf, isStart)

	// Pass 3: segment accounting. Segments begin at block starts (all
	// branch targets are block starts) and after any instruction that
	// can fault, call out, or branch. A segment's step count is the sum
	// of its instructions' headSteps (a superinstruction weighs its
	// constituents), and gap slots — consumed second halves of fused
	// pairs, never executed — contribute nothing and never head a
	// segment.
	head := 0
	for i := range lf.code {
		if lf.code[i].op == opFusedGap {
			if head == i {
				// The preceding superinstruction ended a segment; the
				// next one starts after the gap.
				head = i + 1
			}
			continue
		}
		if i > head && isStart[i] {
			// Fallthrough into a block start: close the previous
			// segment here.
			head = i
		}
		lf.code[head].segLen += lf.code[i].headSteps()
		for _, tc := range lf.code[i].charges {
			lf.code[head].addSegCharge(tc)
		}
		if endsSegment(lf.code[i].op) {
			head = i + 1
		}
	}

	// Pass 4: operand forms (opspec.go). Last, so fusion and segment
	// accounting see only the IR's own opcodes.
	specialize(lf.code)
	return lf
}

// addSegCharge merges one charge component into a segment head's
// per-tag batch, keeping first-occurrence order (deterministic, and
// matching the order charges first appear in the segment): the first
// two tags fill the head's fields, any further tag goes to more.
func (h *linkedInstr) addSegCharge(tc tagCharge) {
	switch {
	case h.n1 == 0:
		h.tag1, h.n1 = tc.tag, tc.n
	case h.tag1 == tc.tag:
		h.n1 += tc.n
	case h.n2 == 0:
		h.tag2, h.n2 = tc.tag, tc.n
	case h.tag2 == tc.tag:
		h.n2 += tc.n
	default:
		for i := range h.more {
			if h.more[i].tag == tc.tag {
				h.more[i].n += tc.n
				return
			}
		}
		h.more = append(h.more, tc)
	}
}

// lower translates the instruction b.Instrs[idx].
func (e *Engine) lower(env Env, fn *Function, b *Block, idx int, starts map[string]int) linkedInstr {
	in := &b.Instrs[idx]
	li := linkedInstr{
		op: in.Op, dst: in.Dst, a: in.A, b: in.B, c: in.C,
		imm: in.Imm, size: in.Size, sym: in.Sym, args: in.Args,
	}
	switch in.Op {
	case OpBr:
		li.t1 = blockStart(fn, b, in.Blk1, starts)
	case OpCondBr:
		li.t1 = blockStart(fn, b, in.Blk1, starts)
		li.t2 = blockStart(fn, b, in.Blk2, starts)
	case OpCall:
		switch {
		case in.Sym == CorruptReturnIntrinsic:
			li.op = opCorruptReturn
		default:
			if addr, ok := env.FuncAddr(in.Sym); ok {
				if callee, ok := env.FuncByAddr(addr); ok {
					li.callee = e.linked(env, callee)
					break
				}
			}
			li.op = opCallIntrinsic
		}
	case OpAsm:
		// Pre-concatenate the intrinsic name the reference builds per
		// execution.
		li.sym = "asm:" + in.Sym
	case OpFuncAddr:
		if addr, ok := env.FuncAddr(in.Sym); ok {
			li.op = opFuncAddrImm
			li.imm = addr
		}
	case OpCallInd, OpCFICallInd:
		li.ic = new(icSite)
	case OpConst, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE, OpSelect,
		OpLoad, OpStore, OpMemcpy, OpMaskGhost,
		OpRet, OpCFIRet, OpPortIn, OpPortOut, OpCFILabel:
		// Lowered as-is.
	default:
		li.op = opUnimpl
		li.imm = uint64(in.Op)
	}
	li.base = li.op
	li.charges = instrCharges(li.op)
	return li
}

func blockStart(fn *Function, b *Block, name string, starts map[string]int) int {
	t, ok := starts[name]
	if !ok {
		panic(fmt.Sprintf("vir: link %s: branch in block %s to unknown block %q",
			fn.Name, b.Name, name))
	}
	return t
}
