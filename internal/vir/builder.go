package vir

import "fmt"

// Builder assembles a Function instruction by instruction. It manages
// virtual-register allocation and the current insertion block, so module
// authors (the kernel's IR routines, the attack modules, tests) can
// write code in a compact fluent style.
type Builder struct {
	fn  *Function
	cur *Block
}

// NewFunction starts building a function with nparams parameters, which
// occupy registers 0..nparams-1. An entry block named "entry" is
// created and selected.
func NewFunction(name string, nparams int) *Builder {
	f := &Function{Name: name, NParams: nparams, NRegs: nparams}
	b := &Builder{fn: f}
	b.NewBlock("entry")
	return b
}

// Fn returns the function under construction.
func (b *Builder) Fn() *Function { return b.fn }

// Param returns the operand for parameter i.
func (b *Builder) Param(i int) Value {
	if i < 0 || i >= b.fn.NParams {
		panic(fmt.Sprintf("vir: parameter %d out of range", i))
	}
	return R(i)
}

// NewBlock appends a block and makes it the insertion point.
func (b *Builder) NewBlock(name string) *Block {
	blk := &Block{Name: name}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	b.cur = blk
	return blk
}

func (b *Builder) newReg() int {
	r := b.fn.NRegs
	b.fn.NRegs++
	return r
}

func (b *Builder) emit(in Instr) {
	b.cur.Instrs = append(b.cur.Instrs, in)
}

// Assign writes src into an existing register (for loop-carried
// variables).
func (b *Builder) Assign(dst Value, src Value) {
	if dst.IsImm {
		panic("vir: cannot assign to an immediate")
	}
	b.emit(Instr{Op: OpMov, Dst: dst.Reg, A: src})
}

// Const materializes an immediate into a fresh register.
func (b *Builder) Const(v uint64) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpConst, Dst: d, Imm: v})
	return R(d)
}

// Mov copies a value into a fresh register.
func (b *Builder) Mov(a Value) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpMov, Dst: d, A: a})
	return R(d)
}

func (b *Builder) bin(op Opcode, a, c Value) Value {
	d := b.newReg()
	b.emit(Instr{Op: op, Dst: d, A: a, B: c})
	return R(d)
}

// Add emits a + c.
func (b *Builder) Add(a, c Value) Value { return b.bin(OpAdd, a, c) }

// Sub emits a - c.
func (b *Builder) Sub(a, c Value) Value { return b.bin(OpSub, a, c) }

// Mul emits a * c.
func (b *Builder) Mul(a, c Value) Value { return b.bin(OpMul, a, c) }

// And emits a & c.
func (b *Builder) And(a, c Value) Value { return b.bin(OpAnd, a, c) }

// Or emits a | c.
func (b *Builder) Or(a, c Value) Value { return b.bin(OpOr, a, c) }

// Xor emits a ^ c.
func (b *Builder) Xor(a, c Value) Value { return b.bin(OpXor, a, c) }

// Shl emits a << c.
func (b *Builder) Shl(a, c Value) Value { return b.bin(OpShl, a, c) }

// Shr emits a >> c.
func (b *Builder) Shr(a, c Value) Value { return b.bin(OpShr, a, c) }

// CmpEQ emits a == c.
func (b *Builder) CmpEQ(a, c Value) Value { return b.bin(OpCmpEQ, a, c) }

// CmpNE emits a != c.
func (b *Builder) CmpNE(a, c Value) Value { return b.bin(OpCmpNE, a, c) }

// CmpLT emits unsigned a < c.
func (b *Builder) CmpLT(a, c Value) Value { return b.bin(OpCmpLT, a, c) }

// CmpGE emits unsigned a >= c.
func (b *Builder) CmpGE(a, c Value) Value { return b.bin(OpCmpGE, a, c) }

// Select emits cond != 0 ? x : y.
func (b *Builder) Select(cond, x, y Value) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpSelect, Dst: d, A: cond, B: x, C: y})
	return R(d)
}

// Load emits a size-byte load from address a.
func (b *Builder) Load(a Value, size int) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpLoad, Dst: d, A: a, Size: size})
	return R(d)
}

// Store emits a size-byte store of v to address a.
func (b *Builder) Store(a, v Value, size int) {
	b.emit(Instr{Op: OpStore, A: a, B: v, Size: size})
}

// Memcpy emits a block copy of n bytes from src to dst.
func (b *Builder) Memcpy(dst, src, n Value) {
	b.emit(Instr{Op: OpMemcpy, A: dst, B: src, C: n})
}

// Br emits an unconditional branch.
func (b *Builder) Br(block string) {
	b.emit(Instr{Op: OpBr, Blk1: block})
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, then, els string) {
	b.emit(Instr{Op: OpCondBr, A: cond, Blk1: then, Blk2: els})
}

// Call emits a direct call to sym.
func (b *Builder) Call(sym string, args ...Value) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpCall, Dst: d, Sym: sym, Args: args})
	return R(d)
}

// CallInd emits an indirect call through the code address in target.
func (b *Builder) CallInd(target Value, args ...Value) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpCallInd, Dst: d, A: target, Args: args})
	return R(d)
}

// Ret emits a return.
func (b *Builder) Ret(v Value) {
	b.emit(Instr{Op: OpRet, A: v})
}

// PortIn emits an I/O-port read.
func (b *Builder) PortIn(port Value) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpPortIn, Dst: d, A: port})
	return R(d)
}

// PortOut emits an I/O-port write.
func (b *Builder) PortOut(port, v Value) {
	b.emit(Instr{Op: OpPortOut, A: port, B: v})
}

// Asm emits an inline-assembly marker (rejected by the translator).
func (b *Builder) Asm(text string) {
	b.emit(Instr{Op: OpAsm, Sym: text})
}

// FuncAddr emits "take the code address of sym".
func (b *Builder) FuncAddr(sym string) Value {
	d := b.newReg()
	b.emit(Instr{Op: OpFuncAddr, Dst: d, Sym: sym})
	return R(d)
}
