// Package virref is the reference interpreter for the virtual
// instruction set: a tree-walking Interp that re-resolves every block,
// symbol and charge per step. It is the oracle the differential tests
// hold vir.Engine to (same return values, errors, virtual clock and
// per-tag ledger). No production code runs it, so it sits outside the
// trusted computing base; TestTCBSize fails if a non-test file outside
// this package imports it.
package virref

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/vir"
)

// Interp executes IR functions against a vir.Env.
type Interp struct {
	Env      vir.Env
	MaxSteps int
	steps    int
	active   bool
}

// NewInterp creates an interpreter with the default step budget.
func NewInterp(env vir.Env) *Interp {
	return &Interp{Env: env, MaxSteps: 50_000_000}
}

type frame struct {
	fn          *vir.Function
	regs        []uint64
	retOverride uint64 // code address forced by vir.CorruptReturnIntrinsic; 0 = none
	overridden  bool
}

func (fr *frame) val(v vir.Value) uint64 {
	if v.IsImm {
		return v.Imm
	}
	return fr.regs[v.Reg]
}

// Call runs fn with the given arguments and returns its return value.
// The step budget is per top-level run: a re-entrant Call (a host
// intrinsic invoking module code again) shares the outer run's budget
// instead of refreshing it, so an intrinsic-assisted loop cannot dodge
// the runaway guard.
func (ip *Interp) Call(fn *vir.Function, args ...uint64) (uint64, error) {
	if ip.active {
		return ip.exec(fn, args, 0)
	}
	ip.active = true
	ip.steps = 0
	defer func() { ip.active = false }()
	return ip.exec(fn, args, 0)
}

func (ip *Interp) exec(fn *vir.Function, args []uint64, depth int) (uint64, error) {
	if depth > 256 {
		return 0, fmt.Errorf("vir: call depth exceeded in %s", fn.Name)
	}
	if len(args) != fn.NParams {
		return 0, fmt.Errorf("vir: %s wants %d args, got %d", fn.Name, fn.NParams, len(args))
	}
	fr := &frame{fn: fn, regs: make([]uint64, fn.NRegs)}
	copy(fr.regs, args)
	clk := ip.Env.Clock()

	blk := fn.Entry()
	pc := 0
	for {
		ip.steps++
		if ip.steps > ip.MaxSteps {
			return 0, vir.ErrStepLimit
		}
		if pc >= len(blk.Instrs) {
			return 0, fmt.Errorf("vir: fell off block %s/%s", fn.Name, blk.Name)
		}
		in := blk.Instrs[pc]
		switch in.Op {
		case vir.OpConst:
			fr.regs[in.Dst] = in.Imm
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpMov:
			fr.regs[in.Dst] = fr.val(in.A)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpAdd:
			fr.regs[in.Dst] = fr.val(in.A) + fr.val(in.B)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpSub:
			fr.regs[in.Dst] = fr.val(in.A) - fr.val(in.B)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpMul:
			fr.regs[in.Dst] = fr.val(in.A) * fr.val(in.B)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpAnd:
			fr.regs[in.Dst] = fr.val(in.A) & fr.val(in.B)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpOr:
			fr.regs[in.Dst] = fr.val(in.A) | fr.val(in.B)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpXor:
			fr.regs[in.Dst] = fr.val(in.A) ^ fr.val(in.B)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpShl:
			fr.regs[in.Dst] = fr.val(in.A) << (fr.val(in.B) & 63)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpShr:
			fr.regs[in.Dst] = fr.val(in.A) >> (fr.val(in.B) & 63)
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpCmpEQ:
			fr.regs[in.Dst] = b2u(fr.val(in.A) == fr.val(in.B))
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpCmpNE:
			fr.regs[in.Dst] = b2u(fr.val(in.A) != fr.val(in.B))
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpCmpLT:
			fr.regs[in.Dst] = b2u(fr.val(in.A) < fr.val(in.B))
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpCmpGE:
			fr.regs[in.Dst] = b2u(fr.val(in.A) >= fr.val(in.B))
			clk.Charge(hw.TagEngine, hw.CostALU)
		case vir.OpSelect:
			if fr.val(in.A) != 0 {
				fr.regs[in.Dst] = fr.val(in.B)
			} else {
				fr.regs[in.Dst] = fr.val(in.C)
			}
			clk.Charge(hw.TagEngine, hw.CostALU)

		case vir.OpMaskGhost:
			// The sandbox sequence the compiler inserted: compare
			// against the partition bases, OR in the escape bit /
			// zero SVA-internal addresses.
			clk.Charge(hw.TagSandbox, hw.CostMaskCheck)
			fr.regs[in.Dst] = vir.MaskAddress(fr.val(in.A))

		case vir.OpLoad:
			v, err := ip.Env.Load(hw.Virt(fr.val(in.A)), in.Size)
			if err != nil {
				return 0, err
			}
			fr.regs[in.Dst] = v
		case vir.OpStore:
			if err := ip.Env.Store(hw.Virt(fr.val(in.A)), in.Size, fr.val(in.B)); err != nil {
				return 0, err
			}
		case vir.OpMemcpy:
			if err := ip.Env.Memcpy(hw.Virt(fr.val(in.A)), hw.Virt(fr.val(in.B)), int(fr.val(in.C))); err != nil {
				return 0, err
			}

		case vir.OpBr:
			clk.Charge(hw.TagEngine, hw.CostBranch)
			blk = fn.FindBlock(in.Blk1)
			pc = 0
			continue
		case vir.OpCondBr:
			clk.Charge(hw.TagEngine, hw.CostBranch)
			if fr.val(in.A) != 0 {
				blk = fn.FindBlock(in.Blk1)
			} else {
				blk = fn.FindBlock(in.Blk2)
			}
			pc = 0
			continue

		case vir.OpCall:
			clk.Charge(hw.TagEngine, hw.CostCall)
			argv := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				argv[i] = fr.val(a)
			}
			if in.Sym == vir.CorruptReturnIntrinsic {
				// Stack smash: overwrite this frame's return target.
				if len(argv) != 1 {
					return 0, fmt.Errorf("vir: %s wants 1 arg", vir.CorruptReturnIntrinsic)
				}
				fr.retOverride = argv[0]
				fr.overridden = true
				fr.regs[in.Dst] = 0
				break
			}
			ret, err := ip.dispatchCall(in.Sym, argv, depth)
			if err != nil {
				return 0, err
			}
			fr.regs[in.Dst] = ret

		case vir.OpCallInd, vir.OpCFICallInd:
			clk.Charge(hw.TagEngine, hw.CostCall)
			target := fr.val(in.A)
			if in.Op == vir.OpCFICallInd {
				clk.Charge(hw.TagCFI, hw.CostCFICheck)
				if err := vir.CFICheck(ip.Env, fn.Name, target); err != nil {
					return 0, err
				}
			}
			callee, ok := ip.Env.FuncByAddr(target)
			if !ok {
				return 0, fmt.Errorf("vir: indirect call in %s to non-code address %#x", fn.Name, target)
			}
			argv := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				argv[i] = fr.val(a)
			}
			ret, err := ip.exec(callee, argv, depth+1)
			if err != nil {
				return 0, err
			}
			fr.regs[in.Dst] = ret

		case vir.OpRet, vir.OpCFIRet:
			clk.Charge(hw.TagEngine, hw.CostCall)
			if in.Op == vir.OpCFIRet {
				clk.Charge(hw.TagCFI, hw.CostCFICheck)
			}
			if fr.overridden {
				// The return address was smashed. An instrumented
				// return checks the target; a plain return pivots
				// control to it (the ROP case).
				target := fr.retOverride
				if in.Op == vir.OpCFIRet {
					if err := vir.CFICheck(ip.Env, fn.Name, target); err != nil {
						return 0, err
					}
				}
				gadget, ok := ip.Env.FuncByAddr(target)
				if !ok {
					return 0, fmt.Errorf("vir: return pivots to non-code address %#x", target)
				}
				if gadget.NParams != 0 {
					return 0, fmt.Errorf("vir: return pivot target %s expects arguments", gadget.Name)
				}
				return ip.exec(gadget, nil, depth+1)
			}
			return fr.val(in.A), nil

		case vir.OpPortIn:
			v, err := ip.Env.PortIn(uint16(fr.val(in.A)))
			if err != nil {
				return 0, err
			}
			fr.regs[in.Dst] = v
		case vir.OpPortOut:
			if err := ip.Env.PortOut(uint16(fr.val(in.A)), fr.val(in.B)); err != nil {
				return 0, err
			}

		case vir.OpAsm:
			// Inline assembly executes only in code the trusted
			// translator never saw (Native configuration); its effect
			// is whatever host intrinsic the text names.
			if _, err := ip.Env.Intrinsic("asm:"+in.Sym, nil); err != nil {
				return 0, err
			}

		case vir.OpFuncAddr:
			addr, ok := ip.Env.FuncAddr(in.Sym)
			if !ok {
				return 0, fmt.Errorf("vir: funcaddr of unknown symbol %q", in.Sym)
			}
			fr.regs[in.Dst] = addr
			clk.Charge(hw.TagEngine, hw.CostALU)

		case vir.OpCFILabel:
			clk.Charge(hw.TagCFI, hw.CostCFILabel)

		default:
			return 0, fmt.Errorf("vir: unimplemented opcode %v", in.Op)
		}
		pc++
	}
}

// dispatchCall resolves a direct call: module/code-space function first,
// then host intrinsic.
func (ip *Interp) dispatchCall(sym string, args []uint64, depth int) (uint64, error) {
	if addr, ok := ip.Env.FuncAddr(sym); ok {
		if callee, ok := ip.Env.FuncByAddr(addr); ok {
			return ip.exec(callee, args, depth+1)
		}
	}
	return ip.Env.Intrinsic(sym, args)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
