package vir

// Exports for the external tests (package vir_test). Those tests run
// the reference interpreter, package virref, which imports vir, so
// they cannot be part of package vir itself.

// ICWays is the number of entries of an indirect-call site's inline
// cache.
const ICWays = icWays

// The superinstruction opcodes the fusion pass emits.
const (
	OpFusedCmpBr     = opFusedCmpBr
	OpFusedMaskLoad  = opFusedMaskLoad
	OpFusedMaskStore = opFusedMaskStore
)

// LoweredInstr is what the fusion tests check of one slot of a
// lowering.
type LoweredInstr struct {
	Base  Opcode // the opcode the slot was specialized from
	ImmA  bool   // the A operand is an immediate
	Gap   bool   // the consumed second slot of a fused pair
	Fused int    // a superinstruction's constituents; 0 on other slots
	// Accounting: the slot heads a segment, or carries charges.
	Accounting bool
}

// Lowered returns the code e linked for fn, or nil if e holds no
// lowering of fn.
func (e *Engine) Lowered(fn *Function) []LoweredInstr {
	lf := e.cache[fn]
	if lf == nil {
		return nil
	}
	out := make([]LoweredInstr, len(lf.code))
	for i := range lf.code {
		in := &lf.code[i]
		out[i] = LoweredInstr{
			Base:       in.base,
			ImmA:       in.a.IsImm,
			Gap:        in.op == opFusedGap,
			Fused:      len(in.fused),
			Accounting: in.segLen != 0 || in.n1 != 0 || in.n2 != 0 || in.more != nil || in.charges != nil,
		}
	}
	return out
}
