package vir

// This file is the superinstruction fusion pass of the pre-linked
// engine. Its contract is the linker's (link.go): host work may shrink,
// but the virtual clock and every other observable must stay
// bit-identical to the reference interpreter.
//
// The pass runs between lowering (link pass 2) and segment accounting
// (link pass 3). It recognizes hot two-instruction idioms in the flat
// code array and collapses each into a single pseudo-opcode whose
// handler executes the whole idiom in one dispatch:
//
//	cmp   + condbr     -> opFusedCmpBr     (loop heads)
//	add/sub + br       -> opFusedAddBr/SubBr (loop back-edges)
//	const + binary ALU -> opFusedConstALU  (immediate-forming pairs)
//	maskghost + load   -> opFusedMaskLoad  (the sandbox hot path)
//	maskghost + store  -> opFusedMaskStore
//	call  + ret        -> opFusedCallRet   (tail bookkeeping pair)
//
// A fused instruction keeps the slots of its constituents: the first
// slot holds the superinstruction, the second becomes an opFusedGap the
// handlers jump over — so every pc offset computed in link pass 1 stays
// valid and no branch target moves. Determinism is preserved by
// construction:
//
//   - the fused instruction's head charge list is the exact
//     concatenation of its constituents' shared instrCharges slices, so
//     segment batching (pass 3) sums the same cycles per tag;
//   - its step weight is the number of constituent instructions, so the
//     step budget expires at the same reference instruction;
//   - the constituents themselves ride along in linkedInstr.fused (the
//     per-segment fusion table), so the step-limit slow path can replay
//     per-instruction charges when the budget lands mid-idiom;
//   - call+ret is special: the ret's step and charge happen *after* the
//     callee runs in the reference, so only the call half is batched at
//     the segment head and the handler performs the ret's step check
//     and charge on the way out (engine.go).
//
// Only functions with a loop get the pass: a branch back to the same or
// an earlier block (loop depth >= 1) marks a function hot. Cold
// functions pay one dispatch per instruction, keeping link time and
// code shape simple where fusion cannot pay off.

// Fused pseudo-opcodes. They continue the linker's internal range
// (link.go) and never appear in IR.
const (
	// opFusedGap marks the consumed second slot of a fused pair. It is
	// unreachable: branch targets are block starts, fusion never spans
	// a block boundary, and fused handlers step over it.
	opFusedGap Opcode = 0xA0 + iota
	// opFusedCmpBr: Cmp*(dst,a,b) ; CondBr(R(dst), t1, t2). op2 holds
	// the comparison opcode; the comparison result is still written to
	// dst (it may be live past the branch).
	opFusedCmpBr
	// opFusedAddBr: Add(dst,a,b) ; Br(t1) — the classic counted-loop
	// back-edge.
	opFusedAddBr
	// opFusedSubBr: Sub(dst,a,b) ; Br(t1).
	opFusedSubBr
	// opFusedConstALU: Const(dst, imm) ; ALU(op2, t1, a, b). The ALU
	// operands may read dst (the constant is written first, exactly as
	// sequential execution would).
	opFusedConstALU
	// opFusedMaskLoad: MaskGhost(dst, a) ; Load(t1, [R(dst)], size).
	// The masked address is still written to dst.
	opFusedMaskLoad
	// opFusedMaskStore: MaskGhost(dst, a) ; Store([R(dst)], b, size).
	opFusedMaskStore
	// opFusedCallRet: Call(dst, callee, args) ; Ret(a). Only direct
	// calls with a link-time-resolved callee and a plain (non-CFI) ret
	// fuse; the handler performs the ret's bookkeeping after the callee
	// returns.
	opFusedCallRet
)

// FusionStats counts the fusion tier's work: superinstruction sites the
// linker fused (cumulative over lowerings: relinking after an epoch
// bump counts the sites again) and inline-cache hits (indirect calls
// resolved from their site's entries) and misses (calls that resolved
// the target and filled an entry).
type FusionStats struct {
	SitesFused uint64
	ICHits     uint64
	ICMisses   uint64
}

// icWays is the number of (target, callee) entries an indirect-call
// site keeps.
const icWays = 4

// icSite is the polymorphic inline cache of one indirect-call site. An
// entry is filled only after its target resolved to a function and, at
// a cfi.callind site, passed the CFI check; a hit therefore reuses both
// the resolution and the verdict. Both are pure functions of the target
// and the code-space bindings, and the site lives inside the lowering,
// which the engine drops as soon as the bindings move (engine.go), so
// an entry never serves a target under bindings other than those it was
// filled under. Entries fill in order; once all are full, a miss
// replaces them round-robin, starting with the first.
type icSite struct {
	target [icWays]uint64
	fn     [icWays]*linkedFn
	next   int // entry the next miss fills
}

// lookup returns the callee cached for target, or nil.
func (ic *icSite) lookup(target uint64) *linkedFn {
	for k := range ic.target {
		if ic.target[k] == target && ic.fn[k] != nil {
			return ic.fn[k]
		}
	}
	return nil
}

// fill records a resolved target in the entry the replacement rule
// names.
func (ic *icSite) fill(target uint64, fn *linkedFn) {
	ic.target[ic.next], ic.fn[ic.next] = target, fn
	ic.next = (ic.next + 1) % icWays
}

// fusableALU reports whether op is a binary ALU/compare opcode eligible
// to be the second half of a const+ALU pair (and the first half of a
// cmp+br pair for the comparison subset).
func fusableALU(op Opcode) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE:
		return true
	}
	return false
}

func isCmp(op Opcode) bool {
	switch op {
	case OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE:
		return true
	}
	return false
}

// hasBackEdge is the fusion policy's hotness test: a branch from a
// block to itself or an earlier block means a loop, and loops are where
// saved dispatches multiply.
func hasBackEdge(fn *Function) bool {
	index := make(map[string]int, len(fn.Blocks))
	for i, b := range fn.Blocks {
		index[b.Name] = i
	}
	for i, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case OpBr, OpCondBr:
				if t, ok := index[in.Blk1]; ok && t <= i {
					return true
				}
				if in.Op == OpCondBr {
					if t, ok := index[in.Blk2]; ok && t <= i {
						return true
					}
				}
			}
		}
	}
	return false
}

// fusePair builds the superinstruction for the idiom (a, b), or returns
// false when the pair matches none. The returned instruction carries
// the concatenated head charges, the constituent list for the slow
// path, and the packed operands its handler expects.
func fusePair(a, b *linkedInstr) (linkedInstr, bool) {
	var fi linkedInstr
	switch {
	case isCmp(a.op) && b.op == OpCondBr && !b.a.IsImm && b.a.Reg == a.dst:
		fi = linkedInstr{op: opFusedCmpBr, op2: a.op, dst: a.dst, a: a.a, b: a.b, t1: b.t1, t2: b.t2}
	case a.op == OpAdd && b.op == OpBr:
		fi = linkedInstr{op: opFusedAddBr, dst: a.dst, a: a.a, b: a.b, t1: b.t1}
	case a.op == OpSub && b.op == OpBr:
		fi = linkedInstr{op: opFusedSubBr, dst: a.dst, a: a.a, b: a.b, t1: b.t1}
	case a.op == OpConst && fusableALU(b.op):
		fi = linkedInstr{op: opFusedConstALU, op2: b.op, dst: a.dst, imm: a.imm, t1: b.dst, a: b.a, b: b.b}
	case a.op == OpMaskGhost && b.op == OpLoad && !b.a.IsImm && b.a.Reg == a.dst:
		fi = linkedInstr{op: opFusedMaskLoad, dst: a.dst, a: a.a, t1: b.dst, size: b.size}
	case a.op == OpMaskGhost && b.op == OpStore && !b.a.IsImm && b.a.Reg == a.dst:
		fi = linkedInstr{op: opFusedMaskStore, dst: a.dst, a: a.a, b: b.b, size: b.size}
	case a.op == OpCall && a.callee != nil && b.op == OpRet:
		// Only the call half is batched at the segment head: the
		// reference charges (and step-counts) the ret after the callee
		// has run, and the handler reproduces that ordering.
		fi = linkedInstr{op: opFusedCallRet, dst: a.dst, callee: a.callee, args: a.args, a: b.a}
	default:
		return linkedInstr{}, false
	}

	// The fusion table: the original constituents, in order, each still
	// aliasing its shared instrCharges slice. The step-limit slow path
	// replays these when the budget lands mid-idiom.
	fi.fused = []linkedInstr{*a, *b}
	fi.base = fi.op

	if fi.op == opFusedCallRet {
		fi.charges = a.charges
	} else {
		// Head charges: the exact concatenation of the constituents'
		// charge lists (pass 3 merges per tag, so totals and tags are
		// identical to the unfused segment batch).
		fi.charges = concatCharges(a.charges, b.charges)
	}
	return fi, true
}

// concatCharges concatenates two shared charge slices into a fresh one
// (link-time only; the hot path never builds charge lists).
func concatCharges(a, b []tagCharge) []tagCharge {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]tagCharge, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// fusePass rewrites lf.code in place, fusing adjacent idiom pairs. A
// pair is only fusable when the second instruction is not a block start
// (all branch targets are block starts, so fused pairs are never
// jumped into). Consumed slots become opFusedGap so pc offsets are
// untouched.
func (e *Engine) fusePass(lf *linkedFn, isStart []bool) {
	code := lf.code
	for i := 0; i+1 < len(code); i++ {
		if isStart[i+1] {
			continue
		}
		fi, ok := fusePair(&code[i], &code[i+1])
		if !ok {
			continue
		}
		code[i] = fi
		code[i+1] = linkedInstr{op: opFusedGap}
		e.fstats.SitesFused++
		i++ // the consumed slot cannot start another pair
	}
}

// headSteps is an instruction's weight in its segment's step batch: the
// number of reference-interpreter steps that are certain to execute
// once the segment is entered. Gaps weigh nothing; a fused pair weighs
// its constituents — except call+ret, whose ret step is counted by the
// handler after the callee returns, exactly where the reference counts
// it.
func (li *linkedInstr) headSteps() int {
	switch li.op {
	case opFusedGap:
		return 0
	case opFusedCallRet:
		return 1
	}
	if len(li.fused) > 0 {
		return len(li.fused)
	}
	return 1
}
