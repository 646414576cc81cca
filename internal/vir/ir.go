// Package vir defines the virtual instruction set of the reproduction —
// the stand-in for the LLVM bitcode that all operating-system code must
// be expressed in under Virtual Ghost (paper §4.2). It is a small
// register-based IR with explicit loads, stores, memcpy, direct and
// indirect calls, returns, port I/O, and an inline-assembly marker.
//
// The instrumenting compiler (internal/compiler) rewrites modules of
// this IR: the sandboxing pass wraps every memory operand in ghost-
// partition masking, and the CFI pass adds labels and checks to returns
// and indirect calls. The engine in this package (engine.go) then
// executes the instrumented stream against the simulated CPU and MMU,
// so the security property "compiled kernel code cannot address ghost
// memory" is demonstrated on real instruction sequences rather than
// asserted.
package vir

import "fmt"

// Opcode enumerates the IR instructions.
type Opcode uint8

// Instruction opcodes.
const (
	// OpConst: Dst = Imm.
	OpConst Opcode = iota
	// OpMov: Dst = A.
	OpMov
	// Arithmetic/logic: Dst = A op B.
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// Comparisons (unsigned): Dst = A cmp B ? 1 : 0.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpGE
	// OpSelect: Dst = A != 0 ? B : C.
	OpSelect
	// OpLoad: Dst = mem[A], Size bytes.
	OpLoad
	// OpStore: mem[A] = B, Size bytes.
	OpStore
	// OpMemcpy: copy C bytes from address B to address A.
	OpMemcpy
	// OpBr: jump to Blk1.
	OpBr
	// OpCondBr: if A != 0 jump to Blk1 else Blk2.
	OpCondBr
	// OpCall: Dst = Sym(Args...). Sym resolves to a module function or
	// a host intrinsic (kernel service).
	OpCall
	// OpCallInd: Dst = funcs[A](Args...) — indirect call through a
	// function-pointer value (a code address in the module's function
	// table). This is what CFI checks.
	OpCallInd
	// OpRet: return A.
	OpRet
	// OpPortIn: Dst = in(port A).
	OpPortIn
	// OpPortOut: out(port A) = B.
	OpPortOut
	// OpAsm: inline assembly. The trusted translator refuses modules
	// containing it (paper: hand-written assembly in kernel code is
	// "simply not expressible" once the OS must pass through the VG
	// compiler).
	OpAsm
	// OpFuncAddr: Dst = code address of function Sym (for building
	// function pointers).
	OpFuncAddr
	// --- Instrumentation pseudo-ops (inserted by compiler passes;
	// a module author writing them by hand gains nothing: they only
	// *restrict* what the code can do). ---
	// OpMaskGhost: Dst = sandbox-mask(A): ghost-partition addresses
	// get GhostEscapeBit OR-ed in; SVA-internal addresses become 0.
	OpMaskGhost
	// OpCFILabel: a CFI landing pad with label Imm. Valid targets of
	// returns and indirect calls must begin with one.
	OpCFILabel
	// OpCFIRet: an instrumented return — checks the return target.
	OpCFIRet
	// OpCFICallInd: an instrumented indirect call — checks the target
	// has a CFI label and lies in kernel code space.
	OpCFICallInd
)

var opNames = map[Opcode]string{
	OpConst: "const", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpCmpEQ: "cmpeq", OpCmpNE: "cmpne",
	OpCmpLT: "cmplt", OpCmpGE: "cmpge", OpSelect: "select",
	OpLoad: "load", OpStore: "store", OpMemcpy: "memcpy",
	OpBr: "br", OpCondBr: "condbr", OpCall: "call",
	OpCallInd: "callind", OpRet: "ret", OpPortIn: "portin",
	OpPortOut: "portout", OpAsm: "asm", OpFuncAddr: "funcaddr",
	OpMaskGhost: "maskghost", OpCFILabel: "cfilabel",
	OpCFIRet: "cfiret", OpCFICallInd: "cficallind",
}

func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Value is an instruction operand: either a virtual register or an
// immediate.
type Value struct {
	IsImm bool
	Reg   int
	Imm   uint64
}

// R makes a register operand.
func R(reg int) Value { return Value{Reg: reg} }

// Imm makes an immediate operand.
func Imm(v uint64) Value { return Value{IsImm: true, Imm: v} }

func (v Value) String() string {
	if v.IsImm {
		return fmt.Sprintf("%#x", v.Imm)
	}
	return fmt.Sprintf("%%r%d", v.Reg)
}

// Instr is one IR instruction. Field use depends on Op (see the opcode
// comments); unused fields are zero.
type Instr struct {
	Op   Opcode
	Dst  int
	A    Value
	B    Value
	C    Value
	Imm  uint64
	Size int
	Sym  string
	Blk1 string
	Blk2 string
	Args []Value
}

// Block is a basic block: a named straight-line instruction sequence
// ending in a terminator (br, condbr, ret).
type Block struct {
	Name   string
	Instrs []Instr
}

// Function is an IR function. Parameters arrive in registers 0..NParams-1.
type Function struct {
	Name    string
	NParams int
	NRegs   int
	Blocks  []*Block

	// Instrumentation / translation state, set by the compiler:
	// Labeled means the CFI pass placed a label at function entry;
	// Sandboxed means the load/store pass ran; MmapMasked means the
	// application-side mmap-return masking pass ran; Translated means
	// the trusted translator accepted and signed the function.
	Labeled    bool
	Sandboxed  bool
	MmapMasked bool
	Translated bool
}

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// FindBlock looks a block up by name.
func (f *Function) FindBlock(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// CountOps returns how many instructions of the given opcode the
// function contains (used by tests and the translator's statistics).
func (f *Function) CountOps(op Opcode) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// Module is a compilation unit: an ordered set of functions. Function
// "code addresses" (for function pointers and indirect calls) are
// assigned by the translator when the module is laid out in code space.
type Module struct {
	Name  string
	Funcs []*Function
	byN   map[string]*Function
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, byN: make(map[string]*Function)}
}

// AddFunc appends a function; duplicate names are rejected.
func (m *Module) AddFunc(f *Function) error {
	if _, dup := m.byN[f.Name]; dup {
		return fmt.Errorf("vir: duplicate function %q in module %q", f.Name, m.Name)
	}
	m.Funcs = append(m.Funcs, f)
	m.byN[f.Name] = f
	return nil
}

// Func looks a function up by name.
func (m *Module) Func(name string) *Function {
	return m.byN[name]
}

// Clone deep-copies the module (compiler passes transform copies so the
// pristine input remains available, e.g. to run the same attack module
// both uninstrumented and instrumented).
func (m *Module) Clone() *Module {
	out := NewModule(m.Name)
	for _, f := range m.Funcs {
		nf := &Function{
			Name:       f.Name,
			NParams:    f.NParams,
			NRegs:      f.NRegs,
			Labeled:    f.Labeled,
			Sandboxed:  f.Sandboxed,
			MmapMasked: f.MmapMasked,
			Translated: f.Translated,
		}
		for _, b := range f.Blocks {
			nb := &Block{Name: b.Name, Instrs: make([]Instr, len(b.Instrs))}
			copy(nb.Instrs, b.Instrs)
			for i := range nb.Instrs {
				if nb.Instrs[i].Args != nil {
					nb.Instrs[i].Args = append([]Value(nil), nb.Instrs[i].Args...)
				}
			}
			nf.Blocks = append(nf.Blocks, nb)
		}
		if err := out.AddFunc(nf); err != nil {
			panic(err) // clone of a valid module cannot collide
		}
	}
	return out
}
