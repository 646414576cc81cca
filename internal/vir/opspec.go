package vir

// This file is the operand-form pass of the pre-linked engine, the
// last step of linking (link.go). A generic ALU handler tests
// Value.IsImm on each operand it reads; most executed instructions
// read a register A and either a register or an immediate B, which the
// IR fixes once. The pass rewrites such instructions to opcodes whose
// handlers read their operands in one fixed way:
//
//	mov   R            -> opMovR
//	alu   R, R / R, I  -> op<ALU>RR / op<ALU>RI   (add .. shr, the compares)
//	cmp+condbr R, R/I  -> opCmpBr<cmp>RR / RI     (fused loop heads)
//
// An immediate A keeps the generic opcode. Only op changes: charges,
// step weights, segment boundaries and the fusion table are computed
// before the pass from the generic opcode, and base keeps it for
// pureEval and the step-limit replay. Virtual time is therefore
// untouched by construction.
//
// The new opcodes sit between the public range and the linker's
// internal one. Keep every opcode the engine switches on within
// 0x00–0xA7: the Go compiler lowers Engine.run's switch to one jump
// table only while the opcode range stays within four times the number
// of cases.

// Operand-form opcodes. Each ALU/compare op has an RR form followed by
// its RI form, in IR opcode order, so the forms of op are at
// opAddRR + 2*(op-OpAdd) and one above.
const (
	opMovR Opcode = 0x20 + iota
	opAddRR
	opAddRI
	opSubRR
	opSubRI
	opMulRR
	opMulRI
	opAndRR
	opAndRI
	opOrRR
	opOrRI
	opXorRR
	opXorRI
	opShlRR
	opShlRI
	opShrRR
	opShrRI
	opCmpEQRR
	opCmpEQRI
	opCmpNERR
	opCmpNERI
	opCmpLTRR
	opCmpLTRI
	opCmpGERR
	opCmpGERI
	// Fused cmp+condbr by compare kind (op2 of opFusedCmpBr), in the
	// same RR/RI order.
	opCmpBrEQRR
	opCmpBrEQRI
	opCmpBrNERR
	opCmpBrNERI
	opCmpBrLTRR
	opCmpBrLTRI
	opCmpBrGERR
	opCmpBrGERI
)

// specialize rewrites code to operand forms in place.
func specialize(code []linkedInstr) {
	for i := range code {
		in := &code[i]
		if in.a.IsImm {
			continue
		}
		ri := Opcode(0)
		if in.b.IsImm {
			ri = 1
		}
		switch op := in.op; {
		case op == OpMov:
			in.op = opMovR
		case op >= OpAdd && op <= OpCmpGE:
			in.op = opAddRR + 2*(op-OpAdd) + ri
		case op == opFusedCmpBr:
			in.op = opCmpBrEQRR + 2*(in.op2-OpCmpEQ) + ri
		}
	}
}
