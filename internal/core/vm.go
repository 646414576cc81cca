package core

import (
	"errors"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/hw"
	"repro/internal/vgcrypt"
	"repro/internal/vir"
)

// Policy-violation errors raised by the VM's run-time checks.
var (
	// ErrGhostMapping is returned when the OS tries to create or
	// modify a mapping involving ghost memory (paper §4.3.2).
	ErrGhostMapping = errors.New("core: MMU operation would expose ghost memory to the OS")
	// ErrSVAMapping guards the VM's internal memory the same way.
	ErrSVAMapping = errors.New("core: MMU operation would expose SVA VM memory to the OS")
	// ErrPTPMapping prevents mapping a declared page-table page where
	// the OS could write it directly.
	ErrPTPMapping = errors.New("core: MMU operation would make a page-table page writable by the OS")
	// ErrBadFrameForPTP rejects frames that cannot become page tables.
	ErrBadFrameForPTP = errors.New("core: frame unsuitable for page-table use")
	// ErrNotPermitted is returned by sva.ipush.function for handler
	// addresses the application never registered (paper §4.6.1).
	ErrNotPermitted = errors.New("core: function not registered via sva.permitFunction")
	// ErrNoKey is returned by sva.getKey when no validated binary
	// provided a key for the thread.
	ErrNoKey = errors.New("core: no application key loaded for thread")
	// ErrIOMMUPolicy is returned when the OS tries to program the
	// IOMMU to expose protected frames to DMA (paper §4.3.3).
	ErrIOMMUPolicy = errors.New("core: refusing to expose protected frame to DMA")
	// ErrSwap covers invalid ghost swap-in attempts (corruption,
	// replay, wrong address).
	ErrSwap = errors.New("core: ghost swap blob rejected")
	// ErrNoBinary is returned when execve reinitializes a context for
	// a program that was never validated by LoadBinary.
	ErrNoBinary = errors.New("core: no validated program image for thread")
)

// VM is the Virtual Ghost virtual machine: the SVA-OS implementation
// with all run-time checks enabled. It runs at the same privilege as
// the kernel; its own state (thread contexts, keys, ghost tracking) is
// conceptually in SVA internal memory, which the compiler
// instrumentation makes unaddressable from kernel code.
type VM struct {
	halCommon
	keys *keyChain
	// scratch models the kernel direct map that sandbox-masked
	// addresses land in: reads of never-written locations return zero.
	scratch *scratchMem
	// swapNonces provides unique nonces for ghost-page swap sealing.
	swapCounter uint64
	// iommuLatch mirrors the IOMMU's frame latch so port writes can be
	// policy-checked before they reach the device.
	iommuLatch hw.Frame
	// translations caches signed translations by module name.
	translations map[string]*compiler.Translation
}

// NewVM boots a Virtual Ghost VM on the machine: it derives the key
// chain from the TPM, reserves SVA internal frames, points the IST at
// VM memory so trap state is saved out of the kernel's reach, and
// installs the VM's first-level trap handler.
func NewVM(m *hw.Machine) (*VM, error) {
	vm := &VM{
		halCommon:    newHALCommon(m, true),
		keys:         newKeyChain(m.TPM.StorageKey()),
		scratch:      newScratchMem(),
		translations: make(map[string]*compiler.Translation),
	}
	// Reserve frames for VM internal memory so the frame-type ground
	// truth reflects the SVA region (MMU checks key off FrameSVA).
	for i := 0; i < 16; i++ {
		f, err := m.Mem.AllocFrame(hw.FrameSVA)
		if err != nil {
			return nil, fmt.Errorf("core: reserving SVA frames: %w", err)
		}
		if i == 0 {
			// The first internal frame holds the VM's identity block:
			// its public key staging area. Deterministic (derived from
			// the TPM), non-zero, and — like all SVA/ghost frames —
			// carried sealed in snapshot images, never plaintext.
			b, err := m.Mem.FrameBytes(f)
			if err != nil {
				return nil, err
			}
			n := copy(b, "SVA-VM-IDENT\x00")
			copy(b[n:], vm.keys.pair.Public)
		}
	}
	// The Interrupt Stack Table forces trap state onto a VM-internal
	// stack regardless of privilege change (paper §5). Each CPU gets
	// its own interrupt-context stack inside SVA memory so concurrent
	// traps on different processors never share a save area.
	for i, c := range m.CPUs {
		c.ISTTarget = uint64(vir.SVAInternalBase) + 0x8000 + uint64(i)*0x2000
		c.SetTrapHandler(vm.onTrap)
	}
	return vm, nil
}

// Mode identifies this HAL as the Virtual Ghost configuration.
func (vm *VM) Mode() Mode { return ModeVirtualGhost }

// onTrap is the VM's first-level trap handler: it moves the Interrupt
// Context into VM internal memory, zeroes the general-purpose registers
// (keeping syscall arguments for syscalls), and only then calls the
// kernel — so the OS never sees interrupted application state
// (paper §4.6).
func (vm *VM) onTrap(tf *hw.TrapFrame) {
	clk := vm.m.Clock
	clk.Charge(hw.TagICSave, hw.CostICSave)
	ts := vm.thread(vm.currentTID())
	ts.ic = *tf // the copy in VM internal memory
	ts.hasIC = true
	clk.Charge(hw.TagICSave, hw.CostICZero)
	vm.m.Cur().Regs.Zero(ts.ic.Kind == hw.TrapSyscall)
	if vm.handler == nil {
		panic("core: trap with no kernel handler registered")
	}
	vm.handler(vm.icHandle(ts), ts.ic.Kind, ts.ic.Info)
	// Return to the interrupted program from the protected copy.
	vm.m.Cur().ReturnFromTrap(&ts.ic)
}

// icHandle returns the kernel's handle on the thread's Interrupt
// Context, made on first use.
func (vm *VM) icHandle(ts *threadState) IContext {
	if ts.handle == nil {
		ts.handle = &vgIC{baseIC{tf: &ts.ic, tid: ts.id}}
	}
	return ts.handle
}

// Syscall enters the kernel from user mode.
func (vm *VM) Syscall(num uint64, args [6]uint64) uint64 {
	return vm.doSyscall(num, args)
}

// Trap raises a non-syscall trap (page fault, timer) for the current
// thread.
func (vm *VM) Trap(kind hw.TrapKind, info uint64) {
	vm.m.Cur().Trap(kind, info)
}

// TranslateModule compiles OS code through the full Virtual Ghost
// pipeline: verification, inline-assembly rejection, sandboxing, CFI,
// signing.
func (vm *VM) TranslateModule(m *vir.Module) (*compiler.Translation, error) {
	tr, err := vm.xlator.Translate(m)
	if err != nil {
		return nil, err
	}
	vm.translations[m.Name] = tr
	return tr, nil
}

// --- MMU operations -------------------------------------------------

// DeclarePTP validates and takes ownership of a kernel-provided frame
// for page-table use: the frame must not be mapped anywhere and must
// not be a protected frame; it is zeroed before use.
func (vm *VM) DeclarePTP(f hw.Frame) error {
	vm.m.Clock.Charge(hw.TagMMUCheck, hw.CostMMUCheckPerPage)
	switch vm.m.Mem.TypeOf(f) {
	case hw.FrameGhost, hw.FrameSVA, hw.FrameIO, hw.FrameCode:
		return fmt.Errorf("%w: frame %d is %v", ErrBadFrameForPTP, f, vm.m.Mem.TypeOf(f))
	}
	if vm.m.Mem.Refs(f) != 0 {
		return fmt.Errorf("%w: frame %d still has %d mappings", ErrBadFrameForPTP, f, vm.m.Mem.Refs(f))
	}
	if err := vm.m.Mem.ZeroFrame(f); err != nil {
		return err
	}
	// Before the frame becomes a page-table page, flush any stale
	// translation to it from every remote TLB (SVA-OS shootdown
	// protocol); the Memory layer refuses the retype otherwise.
	vm.m.ShootdownFrame(f)
	// A DMA allowance the OS set while the frame held user data ends
	// here: no device may write a page-table page (paper §4.3.3).
	vm.m.IOMMU.Revoke(f)
	return vm.m.Mem.SetType(f, hw.FramePageTable)
}

// NewAddressSpace allocates a root page-table frame from the OS and
// declares it.
func (vm *VM) NewAddressSpace() (hw.Frame, error) {
	f, err := vm.getFrame()
	if err != nil {
		return 0, err
	}
	if err := vm.DeclarePTP(f); err != nil {
		vm.frames.PutFrame(f)
		return 0, err
	}
	return f, nil
}

// checkMapPolicy enforces the Virtual Ghost mapping constraints
// (paper §4.3.2): the OS may not map anything into the ghost partition
// or the SVA region, may not map ghost/SVA/IO frames anywhere, and may
// not create writable mappings of page-table pages or code frames.
func (vm *VM) checkMapPolicy(va hw.Virt, f hw.Frame, flags uint64) error {
	vm.m.Clock.Charge(hw.TagMMUCheck, hw.CostMMUCheckPerPage)
	if hw.IsGhost(va) {
		return fmt.Errorf("%w: va %#x is in the ghost partition", ErrGhostMapping, uint64(va))
	}
	if va >= vir.SVAInternalBase && va < vir.SVAInternalTop {
		return fmt.Errorf("%w: va %#x is in SVA internal memory", ErrSVAMapping, uint64(va))
	}
	switch vm.m.Mem.TypeOf(f) {
	case hw.FrameGhost:
		return fmt.Errorf("%w: frame %d holds ghost memory", ErrGhostMapping, f)
	case hw.FrameSVA:
		return fmt.Errorf("%w: frame %d holds SVA VM memory", ErrSVAMapping, f)
	case hw.FrameIO:
		return fmt.Errorf("%w: frame %d is memory-mapped I/O", ErrSVAMapping, f)
	case hw.FramePageTable:
		if flags&hw.PTEWrite != 0 {
			return fmt.Errorf("%w: frame %d", ErrPTPMapping, f)
		}
	case hw.FrameCode:
		if flags&hw.PTEWrite != 0 {
			return fmt.Errorf("%w: code frame %d may not be mapped writable", ErrPTPMapping, f)
		}
	}
	return nil
}

// MapPage installs a checked mapping.
func (vm *VM) MapPage(root hw.Frame, va hw.Virt, f hw.Frame, flags uint64) error {
	if err := vm.checkMapPolicy(va, f, flags); err != nil {
		return err
	}
	return vm.rawMap(root, va, f, flags, vm.DeclarePTP)
}

// UnmapPage removes a mapping. Removing mappings never exposes ghost
// memory, but unmapping inside the ghost partition is still refused —
// only the VM manages those entries.
func (vm *VM) UnmapPage(root hw.Frame, va hw.Virt) error {
	vm.m.Clock.Charge(hw.TagMMUCheck, hw.CostMMUCheckPerPage)
	if hw.IsGhost(va) {
		return fmt.Errorf("%w: unmap of %#x", ErrGhostMapping, uint64(va))
	}
	return vm.rawUnmap(root, va)
}

// LoadAddressSpace loads CR3 after checking the root is a declared
// page-table page.
func (vm *VM) LoadAddressSpace(root hw.Frame) error {
	if vm.m.Mem.TypeOf(root) != hw.FramePageTable {
		return fmt.Errorf("%w: CR3 load of non-page-table frame %d", ErrBadFrameForPTP, root)
	}
	vm.m.CurMMU().SetRoot(root)
	if ts, ok := vm.threads[vm.currentTID()]; ok {
		ts.root = root
	}
	return nil
}

// --- costs ------------------------------------------------------------

// KAccess charges n instrumented kernel memory accesses: the base
// access plus the sandboxing mask sequence the compiled kernel executes
// before every load and store. The base access and the mask land in
// separate ledger buckets (so breakdowns can show what the sandbox adds
// over native); splitting a sum across two Charge calls is exact, so the
// total is bit-identical to the old combined Advance.
func (vm *VM) KAccess(n int) {
	vm.m.Clock.Charge(hw.TagMemAccess, uint64(n)*hw.CostMemAccess)
	vm.m.Clock.Charge(hw.TagSandbox, uint64(n)*hw.CostMaskCheck)
}

// OnIndirectCall charges n indirect-call/return sites including their
// CFI checks and landing pads. The base call cost is engine work; the
// check + label are the CFI instrumentation's share.
func (vm *VM) OnIndirectCall(n int) {
	vm.m.Clock.Charge(hw.TagEngine, uint64(n)*hw.CostCall)
	vm.m.Clock.Charge(hw.TagCFI, uint64(n)*(hw.CostCFICheck+hw.CostCFILabel))
}

// BlockCopyCost charges the instrumentation overhead of one kernel
// memcpy: a mask per operand (the bulk per-byte cost is charged by the
// copy implementation itself).
func (vm *VM) BlockCopyCost(n int) {
	vm.m.Clock.Charge(hw.TagSandbox, 2*hw.CostMaskCheck)
	vm.m.Clock.ChargeBytes(hw.TagMemAccess, n, hw.CostBcopyPerByte)
}

// --- kernel memory access (the compiled kernel's loads/stores) -------

// maskVA applies the sandboxing mask and its cost, exactly as the
// instrumented load/store sequences do.
func (vm *VM) maskVA(va hw.Virt) hw.Virt {
	vm.m.Clock.Charge(hw.TagSandbox, hw.CostMaskCheck)
	return hw.Virt(vir.MaskAddress(uint64(va)))
}

// KLoad performs an instrumented kernel load. Ghost-partition addresses
// are masked into kernel space, where the load reads whatever the
// kernel direct map holds there — never the ghost data (the first
// rootkit attack "simply reads unknown data out of its own address
// space", paper §7).
func (vm *VM) KLoad(root hw.Frame, va hw.Virt, size int) (uint64, error) {
	vm.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	va = vm.maskVA(va)
	if hw.IsKernel(va) {
		return vm.scratchLoad(va, size), nil
	}
	p, err := vm.translateIn(root, va, hw.AccRead)
	if err != nil {
		return 0, err
	}
	return vm.m.Mem.ReadLE(p, size)
}

// KStore performs an instrumented kernel store.
func (vm *VM) KStore(root hw.Frame, va hw.Virt, size int, v uint64) error {
	vm.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	va = vm.maskVA(va)
	if hw.IsKernel(va) {
		vm.scratchStore(va, size, v)
		return nil
	}
	p, err := vm.translateIn(root, va, hw.AccWrite)
	if err != nil {
		return err
	}
	return vm.m.Mem.WriteLE(p, size, v)
}

// Copyin copies len(dst) bytes from user space into the kernel buffer
// dst (instrumented memcpy: one mask on the source pointer, block-copy
// cost).
func (vm *VM) Copyin(root hw.Frame, va hw.Virt, dst []byte) error {
	vm.BlockCopyCost(len(dst))
	va = hw.Virt(vir.MaskAddress(uint64(va)))
	for len(dst) > 0 {
		if hw.IsKernel(va) {
			chunk := min(len(dst), hw.PageSize)
			vm.scratch.read(va, dst[:chunk])
			va += hw.Virt(chunk)
			dst = dst[chunk:]
			continue
		}
		chunk := min(len(dst), int(hw.PageSize-(va&(hw.PageSize-1))))
		p, err := vm.translateIn(root, va, hw.AccRead)
		if err != nil {
			return err
		}
		if err := vm.m.Mem.ReadPhysInto(p, dst[:chunk]); err != nil {
			return err
		}
		va += hw.Virt(chunk)
		dst = dst[chunk:]
	}
	return nil
}

// Copyout copies kernel bytes to user space (instrumented memcpy).
func (vm *VM) Copyout(root hw.Frame, va hw.Virt, b []byte) error {
	vm.BlockCopyCost(len(b))
	va = hw.Virt(vir.MaskAddress(uint64(va)))
	for len(b) > 0 {
		if hw.IsKernel(va) {
			chunk := min(len(b), hw.PageSize)
			vm.scratch.write(va, b[:chunk])
			va += hw.Virt(chunk)
			b = b[chunk:]
			continue
		}
		chunk := min(len(b), int(hw.PageSize-(va&(hw.PageSize-1))))
		p, err := vm.translateIn(root, va, hw.AccWrite)
		if err != nil {
			return err
		}
		if err := vm.m.Mem.WritePhys(p, b[:chunk]); err != nil {
			return err
		}
		va += hw.Virt(chunk)
		b = b[chunk:]
	}
	return nil
}

func (vm *VM) scratchLoad(va hw.Virt, size int) uint64 {
	return vm.scratch.load(va, size)
}

func (vm *VM) scratchStore(va hw.Virt, size int, v uint64) {
	vm.scratch.store(va, size, v)
}

// --- checked I/O ------------------------------------------------------

// PortIn reads an I/O port through the VM's checked instruction.
func (vm *VM) PortIn(port uint16) (uint64, error) {
	vm.m.Clock.Charge(hw.TagIO, hw.CostMemAccess)
	return vm.m.Ports.In(port), nil
}

// PortOut writes an I/O port, refusing IOMMU programming that would
// expose ghost, SVA, or page-table frames to device DMA.
func (vm *VM) PortOut(port uint16, v uint64) error {
	vm.m.Clock.Charge(hw.TagIO, hw.CostMemAccess)
	switch port {
	case hw.IOMMUPortFrame:
		vm.iommuLatch = hw.Frame(v)
	case hw.IOMMUPortCmd:
		if v == hw.IOMMUCmdAllow {
			switch vm.m.Mem.TypeOf(vm.iommuLatch) {
			case hw.FrameGhost, hw.FrameSVA, hw.FramePageTable:
				return fmt.Errorf("%w: frame %d is %v", ErrIOMMUPolicy,
					vm.iommuLatch, vm.m.Mem.TypeOf(vm.iommuLatch))
			}
		}
	}
	vm.m.Ports.Out(port, v)
	return nil
}

// Random returns trusted randomness from the VM's built-in generator
// (paper §4.7: defeats Iago attacks that feed applications non-random
// numbers).
func (vm *VM) Random() uint64 {
	vm.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	return vm.m.RNG.Next()
}

// --- key management ---------------------------------------------------

// Installer returns the trusted-administrator interface for preparing
// signed binaries on this machine (paper §4.4/§4.5: binaries are signed
// when installed by a trusted administrator, e.g. in single-user mode).
func (vm *VM) Installer() *Installer { return &Installer{keys: vm.keys} }

// LoadBinary validates a binary's installer signature, decrypts the key
// section into VM memory, and binds it to the thread. Tampered binaries
// are refused, preventing startup (security guarantee 4, paper §3.4).
func (vm *VM) LoadBinary(t ThreadID, bin *Binary) error {
	vm.m.Clock.Charge(hw.TagCrypt, hw.CostPageHash)
	if !vm.keys.verifyBinary(bin) {
		return ErrBadBinary
	}
	key, err := vm.keys.openAppKey(bin.KeySection)
	if err != nil {
		return ErrBadBinary
	}
	ts := vm.thread(t)
	ts.appKey = key
	ts.binName = bin.Name
	return nil
}

// GetKey returns the application key (sva.getKey). The application
// stores it in ghost memory; the OS has no path to it.
func (vm *VM) GetKey(t ThreadID) ([]byte, error) {
	ts, err := vm.lookup(t)
	if err != nil {
		return nil, err
	}
	if ts.appKey == nil {
		return nil, ErrNoKey
	}
	out := make([]byte, len(ts.appKey))
	copy(out, ts.appKey)
	return out, nil
}

// VMPublicKey returns the machine's Virtual Ghost public key.
func (vm *VM) VMPublicKey() []byte {
	return append([]byte(nil), vm.keys.pair.Public...)
}

// Installer signs binaries with the machine's Virtual Ghost key pair.
// It models the trusted installation path (software distributor or
// administrator on trusted media); the hostile OS never holds it.
type Installer struct {
	keys *keyChain
}

// Install builds and signs a binary embedding the given application
// key.
func (ins *Installer) Install(name string, image []byte, appKey []byte) (*Binary, error) {
	if len(appKey) != vgcrypt.KeySize {
		return nil, fmt.Errorf("core: application key must be %d bytes", vgcrypt.KeySize)
	}
	section, err := ins.keys.sealAppKey(appKey)
	if err != nil {
		return nil, err
	}
	b := &Binary{Name: name, Image: append([]byte(nil), image...), KeySection: section}
	ins.keys.signBinary(b)
	return b, nil
}

var _ HAL = (*VM)(nil)

// OnVMRegion charges nothing: Virtual Ghost validates mappings when
// they are installed (MapPage/AllocGhost), not at region granularity.
func (vm *VM) OnVMRegion(npages int) {}
