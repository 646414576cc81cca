package core

import "repro/internal/hw"

// syscallArgRegs is the argument-register order (System V-style).
var syscallArgRegs = [6]hw.Reg{hw.RDI, hw.RSI, hw.RDX, hw.RCX, hw.R8, hw.R9}

// baseIC implements the checked IContext view over a trap frame. Both
// HALs use it; the difference is where the frame lives (VM internal
// memory vs the kernel stack) and whether the raw frame is reachable.
type baseIC struct {
	tf  *hw.TrapFrame
	tid ThreadID
}

func (ic *baseIC) SyscallNum() uint64 { return ic.tf.Regs.GPR[hw.RAX] }

func (ic *baseIC) Arg(i int) uint64 {
	if i < 0 || i >= len(syscallArgRegs) {
		return 0
	}
	return ic.tf.Regs.GPR[syscallArgRegs[i]]
}

func (ic *baseIC) SetRet(v uint64) { ic.tf.Regs.GPR[hw.RAX] = v }

func (ic *baseIC) Thread() ThreadID { return ic.tid }

// vgIC is the Virtual Ghost Interrupt Context handle. The underlying
// frame is stored in VM internal memory; there is deliberately no
// RawFrame method — the kernel can only use the checked mutators.
type vgIC struct{ baseIC }

// nativeIC is the native Interrupt Context: the frame sits on the
// kernel stack and RawFrame hands it out for arbitrary mutation, which
// is exactly the attack surface Virtual Ghost closes.
type nativeIC struct{ baseIC }

// RawFrame implements RawFramer.
func (ic *nativeIC) RawFrame() *hw.TrapFrame { return ic.tf }

var _ RawFramer = (*nativeIC)(nil)
