package vir

// This file is the superinstruction fusion pass of the pre-linked
// engine. Its contract is the linker's (link.go): host work may shrink,
// but the virtual clock and every other observable must stay
// bit-identical to the reference interpreter (virref.Interp).
//
// The pass runs between lowering (link pass 2) and segment accounting
// (link pass 3). It recognizes three two-instruction idioms in the flat
// code array and collapses each into a single pseudo-opcode whose
// handler executes the whole idiom in one dispatch:
//
//	cmp   + condbr     -> opFusedCmpBr     (the compare's A is a register)
//	maskghost + load   -> opFusedMaskLoad  (the sandbox hot path)
//	maskghost + store  -> opFusedMaskStore
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
//     per-instruction charges when the budget lands mid-idiom.
//
// Every function gets the pass. Each idiom ends its segment with its
// second half (a branch, a load or a store), and none involves a call
// or a symbol, so what fuses depends on the opcodes alone, never on
// the code-space bindings a lowering was linked against.

// Fused pseudo-opcodes. They continue the linker's internal range
// (link.go) and never appear in IR.
const (
	// opFusedGap marks the consumed second slot of a fused pair. It is
	// unreachable: branch targets are block starts, fusion never spans
	// a block boundary, and fused handlers step over it.
	opFusedGap Opcode = 0xA0 + iota
	// opFusedCmpBr: Cmp*(dst,R(a),b) ; CondBr(R(dst), t1, t2). op2
	// holds the comparison opcode; the comparison result is still
	// written to dst (it may be live past the branch). The operand-form
	// pass (opspec.go) rewrites every one to an opCmpBr form.
	opFusedCmpBr
	// opFusedMaskLoad: MaskGhost(dst, a) ; Load(t1, [R(dst)], size).
	// The masked address is still written to dst.
	opFusedMaskLoad
	// opFusedMaskStore: MaskGhost(dst, a) ; Store([R(dst)], b, size).
	opFusedMaskStore
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

func isCmp(op Opcode) bool {
	switch op {
	case OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE:
		return true
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
	case isCmp(a.op) && !a.a.IsImm && b.op == OpCondBr && !b.a.IsImm && b.a.Reg == a.dst:
		fi = linkedInstr{op: opFusedCmpBr, op2: a.op, dst: a.dst, a: a.a, b: a.b, t1: b.t1, t2: b.t2}
	case a.op == OpMaskGhost && b.op == OpLoad && !b.a.IsImm && b.a.Reg == a.dst:
		fi = linkedInstr{op: opFusedMaskLoad, dst: a.dst, a: a.a, t1: b.dst, size: b.size}
	case a.op == OpMaskGhost && b.op == OpStore && !b.a.IsImm && b.a.Reg == a.dst:
		fi = linkedInstr{op: opFusedMaskStore, dst: a.dst, a: a.a, b: b.b, size: b.size}
	default:
		return linkedInstr{}, false
	}

	// The fusion table: the original constituents, in order, each still
	// aliasing its shared instrCharges slice. The step-limit slow path
	// replays these when the budget lands mid-idiom.
	fi.fused = []linkedInstr{*a, *b}
	fi.base = fi.op

	// Head charges: the exact concatenation of the constituents' charge
	// lists (pass 3 merges per tag, so totals and tags are identical to
	// the unfused segment batch).
	fi.charges = concatCharges(a.charges, b.charges)
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
// its constituents.
func (li *linkedInstr) headSteps() int {
	if li.op == opFusedGap {
		return 0
	}
	if len(li.fused) > 0 {
		return len(li.fused)
	}
	return 1
}
