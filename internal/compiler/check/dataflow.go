package check

import (
	"fmt"

	"repro/internal/vir"
)

// This file is the reusable forward-dataflow framework the admission
// checker's analyses are built on. It started life as a one-off
// masked-value fixpoint; the generalized form factors the three parts
// every forward analysis over VIR shares —
//
//   - a pluggable lattice (the state type S plus Entry/Clone/Join),
//   - a transfer function (how one instruction moves the state),
//   - the worklist fixpoint over the CFG,
//
// — so a new analysis is a transfer function and a join, not a new
// solver. The admission checker's masking analysis and the
// application-side mmap checker (appcheck.go) both run on it. The
// per-instruction facts are exposed
// by Replay, which streams the converged state through every block in
// definition order: the visitor sees the exact in-fact of each
// instruction without materializing O(instrs) state copies.

// Analysis is one forward dataflow problem over a function. The state
// S is mutated in place by Transfer, so slice- and map-backed states
// work naturally; Clone must produce an independent copy.
type Analysis[S any] interface {
	// Entry returns the abstract state at function entry.
	Entry(f *vir.Function) S
	// Clone deep-copies a state.
	Clone(s S) S
	// Join merges src into dst (the lattice join at a control-flow
	// merge), returning the merged state and whether dst changed.
	Join(dst, src S) (S, bool)
	// Transfer applies one instruction's effect to st in place.
	Transfer(st S, in vir.Instr)
}

// Facts is the converged result of running an Analysis: one in-state
// per basic block, plus reachability. Blocks the fixpoint never
// reached are replayed from the entry state — conservative in both
// directions (diagnostics still fire in dead code, facts there claim
// no more than the entry state supports), since "dead" is only as
// trustworthy as the branch conditions around it.
type Facts[S any] struct {
	fn      *vir.Function
	a       Analysis[S]
	in      []S
	reached []bool
}

// successors returns the CFG successor block names of a terminator
// (empty for returns).
func successors(in vir.Instr) []string {
	switch in.Op {
	case vir.OpBr:
		return []string{in.Blk1}
	case vir.OpCondBr:
		return []string{in.Blk1, in.Blk2}
	}
	return nil
}

// Run computes the fixpoint of a over f with a LIFO worklist. The
// function must have at least one block (callers gate on that).
func Run[S any](f *vir.Function, a Analysis[S]) *Facts[S] {
	index := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		index[b.Name] = i
	}

	fx := &Facts[S]{
		fn:      f,
		a:       a,
		in:      make([]S, len(f.Blocks)),
		reached: make([]bool, len(f.Blocks)),
	}
	fx.in[0] = a.Entry(f)
	fx.reached[0] = true

	work := []int{0}
	onWork := make([]bool, len(f.Blocks))
	onWork[0] = true
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		onWork[bi] = false
		out := a.Clone(fx.in[bi])
		for _, in := range f.Blocks[bi].Instrs {
			a.Transfer(out, in)
		}
		last := f.Blocks[bi].Instrs[len(f.Blocks[bi].Instrs)-1]
		for _, succ := range successors(last) {
			si, ok := index[succ]
			if !ok {
				continue // structural verifier's problem, not ours
			}
			if !fx.reached[si] {
				fx.in[si] = a.Clone(out)
				fx.reached[si] = true
			} else {
				var changed bool
				fx.in[si], changed = fx.a.Join(fx.in[si], out)
				if !changed {
					continue
				}
			}
			if !onWork[si] {
				onWork[si] = true
				work = append(work, si)
			}
		}
	}
	return fx
}

// BlockInput returns an independent copy of block bi's converged
// in-state (the entry state for unreached blocks).
func (fx *Facts[S]) BlockInput(bi int) S {
	if !fx.reached[bi] {
		return fx.a.Entry(fx.fn)
	}
	return fx.a.Clone(fx.in[bi])
}

// Replay streams the converged facts through every block in definition
// order. visit is called with the state holding *before* each
// instruction; the framework then applies Transfer, so a full replay
// visits every instruction with its exact in-fact.
func (fx *Facts[S]) Replay(visit func(bi int, b *vir.Block, idx int, in vir.Instr, st S)) {
	for bi, b := range fx.fn.Blocks {
		st := fx.BlockInput(bi)
		for i, in := range b.Instrs {
			visit(bi, b, i, in, st)
			fx.a.Transfer(st, in)
		}
	}
}

// ---------------------------------------------------------------------
// Masked-value analysis (the admission invariant: every memory-op
// address is the unmodified result of an OpMaskGhost on all paths).
// ---------------------------------------------------------------------

// maskState is the per-register abstract value of the masked-address
// lattice. The encoding makes join a bitwise OR:
//
//	      top (3)          may be masked or unmasked
//	     /        \
//	masked (1)  unmasked (2)
//	     \        /
//	      bottom (0)       unreached
//
// Only stMasked proves an address safe to dereference: stTop means some
// path reaches the use without the mask, which is exactly the bug class
// the analysis exists to catch.
type maskState uint8

const (
	stBottom   maskState = 0
	stMasked   maskState = 1
	stUnmasked maskState = 2
	stTop      maskState = 3
)

func (s maskState) String() string {
	switch s {
	case stBottom:
		return "unreached"
	case stMasked:
		return "masked"
	case stUnmasked:
		return "unmasked"
	}
	return "maybe-unmasked"
}

// regStates is one abstract machine state: a lattice value per virtual
// register.
type regStates []maskState

// writesDst reports whether an opcode defines its Dst register. This
// mirrors the structural verifier's (unexported) table in package vir;
// the checker keeps its own copy because admission must not depend on
// unexported internals of the IR it is judging.
func writesDst(op vir.Opcode) bool {
	switch op {
	case vir.OpConst, vir.OpMov, vir.OpAdd, vir.OpSub, vir.OpMul,
		vir.OpAnd, vir.OpOr, vir.OpXor, vir.OpShl, vir.OpShr,
		vir.OpCmpEQ, vir.OpCmpNE, vir.OpCmpLT, vir.OpCmpGE,
		vir.OpSelect, vir.OpLoad, vir.OpCall, vir.OpCallInd,
		vir.OpCFICallInd, vir.OpPortIn, vir.OpFuncAddr, vir.OpMaskGhost:
		return true
	}
	return false
}

// maskAnalysis plugs the masked-value lattice into the framework.
//
// Transfer function: OpMaskGhost defines Masked; OpMov copies its
// source's state; OpSelect joins the states of its two data operands
// (the condition does not flow into the value); every other defining
// instruction — arithmetic included, since adding even zero to a masked
// pointer could re-derive a ghost address — produces Unmasked.
// Immediates are Unmasked (the sandbox pass masks constant addresses
// like everything else). Function parameters enter Unmasked: callers
// are never trusted to pre-mask.
type maskAnalysis struct{}

func (maskAnalysis) Entry(f *vir.Function) regStates {
	st := make(regStates, f.NRegs)
	for i := range st {
		st[i] = stUnmasked
	}
	return st
}

func (maskAnalysis) Clone(s regStates) regStates {
	out := make(regStates, len(s))
	copy(out, s)
	return out
}

func (maskAnalysis) Join(dst, src regStates) (regStates, bool) {
	changed := false
	for i, v := range src {
		if merged := dst[i] | v; merged != dst[i] {
			dst[i] = merged
			changed = true
		}
	}
	return dst, changed
}

func (maskAnalysis) Transfer(st regStates, in vir.Instr) {
	val := func(v vir.Value) maskState {
		if v.IsImm {
			return stUnmasked
		}
		return st[v.Reg]
	}
	switch {
	case in.Op == vir.OpMaskGhost:
		st[in.Dst] = stMasked
	case in.Op == vir.OpMov:
		st[in.Dst] = val(in.A)
	case in.Op == vir.OpSelect:
		st[in.Dst] = val(in.B) | val(in.C)
	case writesDst(in.Op):
		st[in.Dst] = stUnmasked
	}
}

// checkMasking proves every load/store/memcpy address operand is the
// unmodified result of an OpMaskGhost on all paths, via the forward
// framework over the masked-value lattice.
func checkMasking(f *vir.Function) []Diagnostic {
	if len(f.Blocks) == 0 {
		return nil
	}
	fx := Run[regStates](f, maskAnalysis{})
	var diags []Diagnostic
	fx.Replay(func(_ int, b *vir.Block, i int, in vir.Instr, st regStates) {
		addr := func(v vir.Value, code, what string) {
			s := stUnmasked
			if !v.IsImm {
				s = st[v.Reg]
			}
			if s != stMasked {
				diags = append(diags, Diagnostic{Fn: f.Name, Block: b.Name, Idx: i,
					Code: code,
					Msg:  fmt.Sprintf("%s address %v is %s (not the result of maskghost)", what, v, s)})
			}
		}
		switch in.Op {
		case vir.OpLoad:
			addr(in.A, CodeUnmaskedLoad, "load")
		case vir.OpStore:
			addr(in.A, CodeUnmaskedStore, "store")
		case vir.OpMemcpy:
			addr(in.A, CodeUnmaskedMemcpy, "memcpy destination")
			addr(in.B, CodeUnmaskedMemcpy, "memcpy source")
		}
	})
	return diags
}
