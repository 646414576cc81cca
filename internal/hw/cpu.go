package hw

import "fmt"

// Reg names the general-purpose registers of the simulated CPU. The set
// mirrors x86-64's sixteen GPRs; RIP and RSP are held separately in
// RegFile because trap handling treats them specially.
type Reg uint8

// General-purpose registers.
const (
	RAX Reg = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	NumRegs
)

var regNames = [NumRegs]string{
	"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// Priv is a CPU privilege level.
type Priv uint8

const (
	// Supervisor is ring 0 (kernel and the SVA VM, which runs at the
	// same privilege as the kernel — Virtual Ghost has no hypervisor).
	Supervisor Priv = 0
	// User is ring 3.
	User Priv = 3
)

// RegFile is the architectural register state of a hardware thread.
type RegFile struct {
	GPR    [NumRegs]uint64
	RIP    uint64
	RSP    uint64
	RFLAGS uint64
	Priv   Priv
}

// Zero clears the general-purpose registers, optionally preserving the
// registers that carry system-call arguments (RDI, RSI, RDX, RCX, R8,
// R9 and the syscall number in RAX), as the SVA VM does on syscall
// entry (paper §4.6).
func (r *RegFile) Zero(keepSyscallArgs bool) {
	for i := Reg(0); i < NumRegs; i++ {
		if keepSyscallArgs {
			switch i {
			case RAX, RDI, RSI, RDX, RCX, R8, R9:
				continue
			}
		}
		r.GPR[i] = 0
	}
}

// TrapKind identifies why control entered supervisor mode.
type TrapKind uint8

const (
	// TrapSyscall is a system call.
	TrapSyscall TrapKind = iota
	// TrapPageFault is a page fault.
	TrapPageFault
	// TrapTimer is a timer interrupt.
	TrapTimer
	// TrapDevice is a device interrupt.
	TrapDevice
	// TrapIllegal is an illegal instruction or privilege violation.
	TrapIllegal
)

func (k TrapKind) String() string {
	switch k {
	case TrapSyscall:
		return "syscall"
	case TrapPageFault:
		return "pagefault"
	case TrapTimer:
		return "timer"
	case TrapDevice:
		return "device"
	case TrapIllegal:
		return "illegal"
	}
	return "trap?"
}

// TrapFrame is the state the hardware saves when a trap or system call
// occurs. Where it is saved is the crux of the Interrupt Context
// protection: with the IST configured (Virtual Ghost), the hardware
// switches to an SVA-VM-internal stack, so this state is never visible
// to the OS; on the Native configuration it lands on the kernel stack.
type TrapFrame struct {
	Regs RegFile
	Kind TrapKind
	// Info carries kind-specific data (faulting VA for page faults,
	// syscall number for syscalls).
	Info uint64
}

// CPU is one simulated hardware thread. It owns a register file, its
// own MMU (each CPU has a private TLB over the shared physical
// memory), and the IST configuration.
type CPU struct {
	// ID is the CPU's index in its machine's CPUs slice (0 for the
	// boot CPU and for single-CPU machines).
	ID    int
	Regs  RegFile
	MMU   *MMU
	Clock *Clock

	// ISTTarget, when non-zero, is the supervisor stack pointer loaded
	// on every trap regardless of privilege change (x86-64 Interrupt
	// Stack Table). The SVA VM points this into its internal memory.
	ISTTarget uint64

	// trapHandler receives traps; installed by whoever owns the boot
	// path (the SVA VM under Virtual Ghost, the kernel natively).
	trapHandler func(*TrapFrame)

	// entry is the hardware save area Trap fills: the IST stack when
	// ISTTarget is set, the kernel stack otherwise. The next trap on
	// this CPU overwrites it, so the handler copies it out before
	// anything else can trap here.
	entry TrapFrame

	// ipi is the CPU's interrupt line: pending inter-processor
	// interrupts queued by Machine.SendIPI, drained (and charged) by
	// Machine.DrainIPIs when the scheduler next steps this CPU.
	ipi []IPI
}

// NewCPU builds a CPU over the memory/MMU.
func NewCPU(mmu *MMU, clock *Clock) *CPU {
	return &CPU{MMU: mmu, Clock: clock}
}

// SetTrapHandler installs the software entry point invoked on traps.
// The frame it receives is the CPU's entry slot, valid until the next
// trap on this CPU.
func (c *CPU) SetTrapHandler(h func(*TrapFrame)) { c.trapHandler = h }

// Trap simulates the hardware trap sequence: it charges the entry cost,
// saves the register file into the CPU's entry slot, switches to
// supervisor mode (loading the IST stack if configured), and calls the
// handler with the slot.
func (c *CPU) Trap(kind TrapKind, info uint64) {
	c.Clock.Charge(TagTrap, CostTrapEntry)
	c.entry = TrapFrame{Regs: c.Regs, Kind: kind, Info: info}
	c.Regs.Priv = Supervisor
	if c.ISTTarget != 0 {
		c.Regs.RSP = c.ISTTarget
	}
	if c.trapHandler == nil {
		panic("hw: trap with no handler installed")
	}
	c.trapHandler(&c.entry)
}

// ReturnFromTrap simulates iret: it charges the exit cost and reloads
// the register file from the given frame.
func (c *CPU) ReturnFromTrap(tf *TrapFrame) {
	c.Clock.Charge(TagTrap, CostTrapExit)
	c.Regs = tf.Regs
}

// LoadVirt performs a data load of size bytes at virtual address v at
// the CPU's current privilege, charging the access cost.
//
// The data-access paths below charge via ChargeOn(c.ID): they execute
// in process context, which on a multi-CPU machine runs in the epoch
// scheduler's user phase, so their cycles must land on this CPU's
// shard. (Trap/ReturnFromTrap stay on the global Charge: traps are
// kernel-phase work by construction, and the global path's shard panic
// enforces exactly that.)
func (c *CPU) LoadVirt(v Virt, size int) (uint64, error) {
	c.Clock.ChargeOn(c.ID, TagMemAccess, CostMemAccess)
	p, err := c.MMU.Translate(v, AccRead, c.Regs.Priv == User)
	if err != nil {
		return 0, err
	}
	return c.MMU.mem.ReadLE(p, size)
}

// StoreVirt performs a data store of size bytes at virtual address v.
func (c *CPU) StoreVirt(v Virt, size int, val uint64) error {
	c.Clock.ChargeOn(c.ID, TagMemAccess, CostMemAccess)
	p, err := c.MMU.Translate(v, AccWrite, c.Regs.Priv == User)
	if err != nil {
		return err
	}
	return c.MMU.mem.WriteLE(p, size, val)
}

// CopyToVirt copies a byte block into the virtual address space,
// page by page, charging block-copy costs.
func (c *CPU) CopyToVirt(v Virt, b []byte) error {
	c.Clock.ChargeOn(c.ID, TagMemAccess, CostMemAccess)
	c.Clock.ChargeBytesOn(c.ID, TagMemAccess, len(b), CostBcopyPerByte)
	for len(b) > 0 {
		n := int(PageSize - (v & (PageSize - 1)))
		if n > len(b) {
			n = len(b)
		}
		p, err := c.MMU.Translate(v, AccWrite, c.Regs.Priv == User)
		if err != nil {
			return err
		}
		if err := c.MMU.mem.WritePhys(p, b[:n]); err != nil {
			return err
		}
		v += Virt(n)
		b = b[n:]
	}
	return nil
}

// CopyFromVirt copies n bytes out of the virtual address space into a
// fresh slice.
func (c *CPU) CopyFromVirt(v Virt, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := c.CopyFromVirtInto(v, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CopyFromVirtInto copies len(dst) bytes out of the virtual address
// space into dst, page by page, charging block-copy costs — exactly
// what CopyFromVirt charges for the same length.
func (c *CPU) CopyFromVirtInto(v Virt, dst []byte) error {
	c.Clock.ChargeOn(c.ID, TagMemAccess, CostMemAccess)
	c.Clock.ChargeBytesOn(c.ID, TagMemAccess, len(dst), CostBcopyPerByte)
	for len(dst) > 0 {
		chunk := min(len(dst), int(PageSize-(v&(PageSize-1))))
		p, err := c.MMU.Translate(v, AccRead, c.Regs.Priv == User)
		if err != nil {
			return err
		}
		if err := c.MMU.mem.ReadPhysInto(p, dst[:chunk]); err != nil {
			return err
		}
		v += Virt(chunk)
		dst = dst[chunk:]
	}
	return nil
}
