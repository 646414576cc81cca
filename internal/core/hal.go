// Package core implements the paper's primary contribution: the Virtual
// Ghost VM — the SVA-OS hardware abstraction layer plus the trusted
// services (ghost memory, Interrupt Context protection, key management,
// secure swap, trusted randomness) layered on it.
//
// The kernel (internal/kernel) is written against the HAL interface
// defined here. Two implementations exist:
//
//   - VM (vm.go): the Virtual Ghost configuration. Every operation
//     performs the run-time checks of paper §4, kernel memory accesses
//     pay the sandboxing instrumentation cost, traps save the Interrupt
//     Context into VM-internal memory and zero registers, and kernel
//     modules must be translated by the instrumenting compiler.
//
//   - NativeHAL (native.go): the baseline. Operations manipulate the
//     hardware directly with no checks and no instrumentation costs —
//     this is the stock FreeBSD/LLVM configuration the paper measures
//     against, and the configuration on which the rootkit attacks
//     succeed.
//
// Nothing in this package runs at a higher privilege than the kernel:
// the VM is a library the kernel calls into (paper §1), and its
// integrity comes from the compiler instrumentation applied to all
// kernel code, not from hardware privilege.
package core

import (
	"repro/internal/compiler"
	"repro/internal/hw"
	"repro/internal/vir"
)

// Mode identifies which protection configuration a HAL provides.
type Mode int

const (
	// ModeNative is the unprotected baseline.
	ModeNative Mode = iota
	// ModeVirtualGhost is the full Virtual Ghost configuration.
	ModeVirtualGhost
	// ModeShadow is the InkTag/Overshadow-style shadowing baseline
	// (implemented in internal/shadow by wrapping NativeHAL).
	ModeShadow
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeVirtualGhost:
		return "virtualghost"
	case ModeShadow:
		return "shadow"
	}
	return "mode?"
}

// ThreadID identifies a kernel thread to the HAL. The kernel assigns
// them; the HAL keeps per-thread Interrupt Context state.
type ThreadID int

// IContext is the kernel's handle on an interrupted program's saved
// state (paper §4.6). Under Virtual Ghost the underlying trap frame
// lives in VM-internal memory and the kernel can only mutate it through
// the checked HAL operations; natively the frame is on the kernel stack
// and the kernel (or a rootkit) can do anything to it — see RawFramer.
type IContext interface {
	// SyscallNum returns the system-call number (RAX at trap time).
	SyscallNum() uint64
	// Arg returns system-call argument i (0..5: RDI RSI RDX RCX R8 R9).
	Arg(i int) uint64
	// SetRet sets the value returned to the interrupted program (RAX).
	SetRet(v uint64)
	// Thread returns the thread this context belongs to.
	Thread() ThreadID
}

// RawFramer is implemented only by the native IContext: it exposes the
// raw trap frame for direct mutation. Attack code type-asserts to this;
// under Virtual Ghost the assertion fails, which *is* the defence —
// there is no unchecked path to the saved state.
type RawFramer interface {
	RawFrame() *hw.TrapFrame
}

// TrapHandler is the kernel's trap/syscall entry point, registered at
// boot. The HAL invokes it after performing its entry work (under
// Virtual Ghost: saving the Interrupt Context into VM memory and
// zeroing registers).
type TrapHandler func(ic IContext, kind hw.TrapKind, info uint64)

// FrameSource lets the HAL request and return physical frames from the
// kernel's allocator — Virtual Ghost asks the *operating system* for
// page frames and then validates them (paper §3.2).
type FrameSource interface {
	GetFrame() (hw.Frame, error)
	PutFrame(f hw.Frame)
}

// HAL is the SVA-OS API: the complete set of operations the kernel may
// use to manipulate hardware and application state. It corresponds to
// the SVA-OS instructions of paper §4/§5 (sva.* operations, allocgm/
// freegm, MMU update instructions, the I/O instructions).
type HAL interface {
	Mode() Mode
	Machine() *hw.Machine

	// --- boot-time registration ---
	RegisterTrapHandler(h TrapHandler)
	RegisterFrameSource(src FrameSource)

	// --- code translation (the compiler boundary) ---
	// TranslateModule compiles a kernel module through the configured
	// pipeline; under Virtual Ghost this applies sandboxing + CFI and
	// refuses inline assembly. The kernel cannot execute supervisor
	// code that has not been translated.
	TranslateModule(m *vir.Module) (*compiler.Translation, error)
	CodeSpace() *compiler.CodeSpace
	// ModuleEnv builds the execution environment for translated module
	// code running against the address space rooted at root.
	ModuleEnv(root hw.Frame, intrinsics IntrinsicFunc) vir.Env

	// --- MMU operations (paper §4.3.2) ---
	// DeclarePTP hands a kernel frame to the HAL for use as a page-
	// table page; Virtual Ghost validates and zeroes it and from then
	// on the kernel may only write it through UpdateMapping.
	DeclarePTP(f hw.Frame) error
	// NewAddressSpace allocates and declares a root page-table frame.
	NewAddressSpace() (hw.Frame, error)
	// MapPage installs/updates the leaf mapping va -> frame in the
	// address space rooted at root. Virtual Ghost checks that the
	// mapping cannot expose ghost, SVA, or page-table frames.
	MapPage(root hw.Frame, va hw.Virt, f hw.Frame, flags uint64) error
	// UnmapPage removes a leaf mapping.
	UnmapPage(root hw.Frame, va hw.Virt) error
	// LoadAddressSpace loads root into CR3 (context switch).
	LoadAddressSpace(root hw.Frame) error

	// --- ghost memory (paper §3.2: allocgm/freegm) ---
	AllocGhost(t ThreadID, root hw.Frame, va hw.Virt, npages int) error
	FreeGhost(t ThreadID, root hw.Frame, va hw.Virt, npages int) error
	// GhostPages reports how many ghost pages the thread's process
	// currently holds (for accounting and tests).
	GhostPages(t ThreadID) int
	// InheritGhost maps the parent's ghost pages (and key) into the
	// child (fork shares ghost memory within an application,
	// paper §4.6.2).
	InheritGhost(parent, child ThreadID, childRoot hw.Frame) error

	// --- secure swap (paper §3.3) ---
	// SwapOutGhost encrypts+MACs one ghost page with the VM key,
	// releases its frame back to the OS, and returns the blob for the
	// OS to store wherever it likes.
	SwapOutGhost(t ThreadID, va hw.Virt) ([]byte, error)
	// SwapInGhost verifies and decrypts a blob previously produced by
	// SwapOutGhost back into the thread's ghost partition.
	SwapInGhost(t ThreadID, va hw.Virt, blob []byte) error

	// --- Interrupt Context operations (paper §4.6) ---
	// Syscall is the user->kernel entry: it loads the arguments into
	// the CPU, takes the trap, and returns the value the kernel set.
	Syscall(num uint64, args [6]uint64) uint64
	// Trap raises a non-syscall trap (page fault, timer) for the
	// current thread.
	Trap(kind hw.TrapKind, info uint64)
	// NewState creates the Interrupt Context + thread state for a new
	// thread (fork); the child's context is a clone of the parent's
	// (sva.newstate).
	NewState(parent IContext, child ThreadID) (IContext, error)
	// ReinitIContext resets a thread's context for a fresh program
	// image (execve); any ghost memory of the old image is unmapped
	// (sva.reinit.icontext).
	ReinitIContext(ic IContext, entry uint64, stackTop uint64) error
	// PermitFunction registers addr as a legal signal-handler entry
	// for the thread's process (sva.permitFunction). Must be invoked
	// from the application's own context (the libc wrapper does).
	PermitFunction(t ThreadID, addr uint64) error
	// IPushFunction modifies an Interrupt Context so the interrupted
	// program runs the handler at addr when resumed
	// (sva.ipush.function). Virtual Ghost refuses unregistered
	// targets.
	IPushFunction(ic IContext, addr uint64, args ...uint64) error
	// PoppedHandler reports and clears the pending pushed-handler
	// address for a thread (consumed by the return-to-user path).
	PoppedHandler(t ThreadID) (addr uint64, args []uint64, ok bool)
	// SaveIC / LoadIC push and pop a copy of the Interrupt Context
	// around signal delivery (sva.icontext.save/load).
	SaveIC(t ThreadID) error
	LoadIC(t ThreadID) error
	// EndThread releases all HAL state for a thread (process exit).
	EndThread(t ThreadID)

	// --- key management (paper §3.3, §4.4) ---
	// LoadBinary validates a signed application binary, decrypts its
	// key section into VM memory, and associates it with the thread.
	LoadBinary(t ThreadID, bin *Binary) error
	// GetKey returns the application's private key (sva.getKey); the
	// application stores it in ghost memory.
	GetKey(t ThreadID) ([]byte, error)
	// VMPublicKey returns the machine's Virtual Ghost public key, used
	// by trusted installers to sign binaries and encrypt key sections.
	VMPublicKey() []byte

	// --- trusted randomness (paper §4.7) ---
	Random() uint64

	// --- checked I/O (paper §4.3.3) ---
	PortIn(port uint16) (uint64, error)
	PortOut(port uint16, v uint64) error

	// --- instrumentation cost hooks (see DESIGN.md §7) ---
	// KAccess charges n kernel data-structure accesses; Virtual Ghost
	// adds the per-access sandboxing cost the compiled kernel pays.
	KAccess(n int)
	// OnIndirectCall charges n kernel indirect-call/return sites;
	// Virtual Ghost adds the CFI check cost.
	OnIndirectCall(n int)
	// CopyinCost/CopyoutCost charge block-copy instrumentation (one
	// mask per memcpy operand, as the prototype instruments memcpy).
	BlockCopyCost(n int)
	// OnVMRegion is invoked for VM-region create/destroy of npages
	// (mmap/munmap). Native and Virtual Ghost charge nothing here
	// (Virtual Ghost checks at mapping time); the shadowing baseline
	// charges per-page hypervisor region bookkeeping.
	OnVMRegion(npages int)

	// --- kernel access to user/ghost virtual memory ---
	// The compiled kernel's loads and stores: under Virtual Ghost the
	// effective address is masked (so ghost reads return kernel noise
	// and ghost writes land harmlessly in kernel space); natively they
	// reach whatever the MMU maps.
	KLoad(root hw.Frame, va hw.Virt, size int) (uint64, error)
	KStore(root hw.Frame, va hw.Virt, size int, v uint64) error
	// Copyin fills dst from user memory at va; the kernel owns dst,
	// so a copy allocates nothing on the host.
	Copyin(root hw.Frame, va hw.Virt, dst []byte) error
	Copyout(root hw.Frame, va hw.Virt, b []byte) error

	// CurrentThread is maintained by the kernel scheduler.
	SetCurrentThread(t ThreadID)
	CurrentThread() ThreadID
}
