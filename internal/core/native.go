package core

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/hw"
	"repro/internal/vir"
)

// NativeHAL is the baseline configuration: the same API surface as the
// Virtual Ghost VM with *no* protection. MMU updates are raw PTE
// writes, trap state stays where the hardware left it (reachable by the
// kernel and therefore by rootkits), "ghost" allocations are ordinary
// user memory, kernel loads and stores are uninstrumented, and modules
// compile without sandboxing or CFI. It corresponds to the paper's
// native FreeBSD/LLVM baseline.
type NativeHAL struct {
	halCommon
	appKeys map[ThreadID][]byte
	// scratch backs kernel-space addresses touched by module code (the
	// direct-map model shared with moduleEnv).
	scratch *scratchMem
}

// NewNativeHAL boots the baseline HAL on a machine.
func NewNativeHAL(m *hw.Machine) (*NativeHAL, error) {
	h := &NativeHAL{
		halCommon: newHALCommon(m, false),
		appKeys:   make(map[ThreadID][]byte),
	}
	for _, c := range m.CPUs {
		c.ISTTarget = 0 // trap state stays on the kernel stack
		c.SetTrapHandler(h.onTrap)
	}
	return h, nil
}

// Mode identifies the baseline configuration.
func (h *NativeHAL) Mode() Mode { return ModeNative }

// onTrap hands the raw trap frame straight to the kernel: no register
// zeroing, and the frame stays on the kernel stack. A rootkit holding
// the kernel's trap path can read and rewrite everything.
func (h *NativeHAL) onTrap(tf *hw.TrapFrame) {
	ts := h.thread(h.currentTID())
	// The thread's kernel-stack frame, not the CPU's entry slot: the
	// handler may block while other threads trap on this CPU.
	ts.ic = *tf
	ts.hasIC = true
	if h.handler == nil {
		panic("core: trap with no kernel handler registered")
	}
	h.handler(h.icHandle(ts), ts.ic.Kind, ts.ic.Info)
	h.m.Cur().ReturnFromTrap(&ts.ic)
}

// icHandle returns the kernel's handle on the thread's frame, made on
// first use.
func (h *NativeHAL) icHandle(ts *threadState) IContext {
	if ts.handle == nil {
		ts.handle = &nativeIC{baseIC{tf: &ts.ic, tid: ts.id}}
	}
	return ts.handle
}

// Syscall enters the kernel.
func (h *NativeHAL) Syscall(num uint64, args [6]uint64) uint64 {
	return h.doSyscall(num, args)
}

// Trap raises a non-syscall trap.
func (h *NativeHAL) Trap(kind hw.TrapKind, info uint64) {
	h.m.Cur().Trap(kind, info)
}

// TranslateModule compiles without instrumentation and accepts inline
// assembly — the stock-compiler baseline.
func (h *NativeHAL) TranslateModule(m *vir.Module) (*compiler.Translation, error) {
	return h.xlator.Translate(m)
}

// --- MMU (unchecked) --------------------------------------------------

// DeclarePTP just zeroes and retags — the OS can also write PTEs
// directly, so this is bookkeeping, not protection.
func (h *NativeHAL) DeclarePTP(f hw.Frame) error {
	if err := h.m.Mem.ZeroFrame(f); err != nil {
		return err
	}
	return h.m.Mem.SetType(f, hw.FramePageTable)
}

// NewAddressSpace allocates a root table.
func (h *NativeHAL) NewAddressSpace() (hw.Frame, error) {
	f, err := h.getFrame()
	if err != nil {
		return 0, err
	}
	if err := h.DeclarePTP(f); err != nil {
		h.frames.PutFrame(f)
		return 0, err
	}
	return f, nil
}

// MapPage writes the mapping with no policy checks.
func (h *NativeHAL) MapPage(root hw.Frame, va hw.Virt, f hw.Frame, flags uint64) error {
	return h.rawMap(root, va, f, flags, h.DeclarePTP)
}

// UnmapPage removes a mapping with no policy checks.
func (h *NativeHAL) UnmapPage(root hw.Frame, va hw.Virt) error {
	return h.rawUnmap(root, va)
}

// LoadAddressSpace loads CR3.
func (h *NativeHAL) LoadAddressSpace(root hw.Frame) error {
	h.m.CurMMU().SetRoot(root)
	if ts, ok := h.threads[h.currentTID()]; ok {
		ts.root = root
	}
	return nil
}

// --- "ghost" memory (plain user memory on the baseline) ---------------

// AllocGhost maps ordinary user frames at the requested addresses. The
// application's "protected" heap is fully visible to the OS — which is
// exactly what the attack experiments demonstrate.
func (h *NativeHAL) AllocGhost(t ThreadID, root hw.Frame, va hw.Virt, npages int) error {
	if err := checkGhostRange(va, npages); err != nil {
		return err
	}
	ts := h.thread(t)
	ts.root = root
	for i := 0; i < npages; i++ {
		pva := va + hw.Virt(i)*hw.PageSize
		if _, exists := ts.ghost[pva]; exists {
			return fmt.Errorf("core: page %#x already allocated", uint64(pva))
		}
		f, err := h.getFrame()
		if err != nil {
			return err
		}
		if err := h.m.Mem.ZeroFrame(f); err != nil {
			return err
		}
		if err := h.rawMap(root, pva, f, hw.PTEUser|hw.PTEWrite, h.DeclarePTP); err != nil {
			return err
		}
		ts.ghost[pva] = f
	}
	return nil
}

// FreeGhost unmaps and returns the frames (no scrubbing — the baseline
// OS leaks freed contents, as real kernels may).
func (h *NativeHAL) FreeGhost(t ThreadID, root hw.Frame, va hw.Virt, npages int) error {
	if err := checkGhostRange(va, npages); err != nil {
		return err
	}
	ts, err := h.lookup(t)
	if err != nil {
		return err
	}
	for i := 0; i < npages; i++ {
		pva := va + hw.Virt(i)*hw.PageSize
		f, ok := ts.ghost[pva]
		if !ok {
			return fmt.Errorf("core: free of unallocated page %#x", uint64(pva))
		}
		if err := h.rawUnmap(root, pva); err != nil {
			return err
		}
		delete(ts.ghost, pva)
		if h.m.Mem.Refs(f) == 0 {
			h.frames.PutFrame(f)
		}
	}
	return nil
}

// GhostPages reports resident pages.
func (h *NativeHAL) GhostPages(t ThreadID) int {
	ts, ok := h.threads[t]
	if !ok {
		return 0
	}
	return len(ts.ghost)
}

// InheritGhost shares the parent's pages with the child.
func (h *NativeHAL) InheritGhost(parent, child ThreadID, childRoot hw.Frame) error {
	pts, err := h.lookup(parent)
	if err != nil {
		return err
	}
	cts := h.thread(child)
	cts.root = childRoot
	for _, va := range sortedGhostVAs(pts.ghost) {
		f := pts.ghost[va]
		if err := h.rawMap(childRoot, va, f, hw.PTEUser|hw.PTEWrite, h.DeclarePTP); err != nil {
			return err
		}
		cts.ghost[va] = f
	}
	if k, ok := h.appKeys[parent]; ok {
		h.appKeys[child] = append([]byte(nil), k...)
	}
	return nil
}

// SwapOutGhost on the baseline returns the page *in plaintext* — the
// OS-controlled swap file sees everything.
func (h *NativeHAL) SwapOutGhost(t ThreadID, va hw.Virt) ([]byte, error) {
	ts, err := h.lookup(t)
	if err != nil {
		return nil, err
	}
	f, ok := ts.ghost[va]
	if !ok {
		return nil, fmt.Errorf("core: %#x is not resident", uint64(va))
	}
	raw, err := h.m.Mem.FrameBytes(f)
	if err != nil {
		return nil, err
	}
	blob := append([]byte(nil), raw...)
	if err := h.rawUnmap(ts.root, va); err != nil {
		return nil, err
	}
	delete(ts.ghost, va)
	h.frames.PutFrame(f)
	return blob, nil
}

// SwapInGhost restores a plaintext blob with no verification — stale or
// tampered pages are accepted silently.
func (h *NativeHAL) SwapInGhost(t ThreadID, va hw.Virt, blob []byte) error {
	ts, err := h.lookup(t)
	if err != nil {
		return err
	}
	if err := h.AllocGhost(t, ts.root, va, 1); err != nil {
		return err
	}
	dst, err := h.m.Mem.FrameBytes(ts.ghost[va])
	if err != nil {
		return err
	}
	copy(dst, blob)
	return nil
}

// --- Interrupt Context operations (unchecked) --------------------------

// NewState clones the parent context on the kernel stack.
func (h *NativeHAL) NewState(parent IContext, child ThreadID) (IContext, error) {
	rf, ok := parent.(RawFramer)
	if !ok {
		return nil, fmt.Errorf("core: native NewState needs a native context")
	}
	cts := h.thread(child)
	cts.ic = *rf.RawFrame()
	cts.hasIC = true
	return h.icHandle(cts), nil
}

// ReinitIContext resets the context with no validation of the entry.
func (h *NativeHAL) ReinitIContext(ic IContext, entry uint64, stackTop uint64) error {
	rf, ok := ic.(RawFramer)
	if !ok {
		return fmt.Errorf("core: native ReinitIContext needs a native context")
	}
	rf.RawFrame().Regs = hw.RegFile{RIP: entry, RSP: stackTop, Priv: hw.User}
	return nil
}

// PermitFunction is a no-op baseline: nothing checks the list.
func (h *NativeHAL) PermitFunction(t ThreadID, addr uint64) error {
	ts := h.thread(t)
	ts.permitted[addr] = true
	return nil
}

// IPushFunction redirects the interrupted program to any address at all
// — the attack surface used by the code-injection rootkit.
func (h *NativeHAL) IPushFunction(ic IContext, addr uint64, args ...uint64) error {
	ts := h.thread(ic.Thread())
	ts.pendingAddr = addr
	ts.pendingArgs = append([]uint64(nil), args...)
	ts.pendingSet = true
	return nil
}

// PoppedHandler consumes the pending handler.
func (h *NativeHAL) PoppedHandler(t ThreadID) (uint64, []uint64, bool) {
	ts, ok := h.threads[t]
	if !ok || !ts.pendingSet {
		return 0, nil, false
	}
	ts.pendingSet = false
	return ts.pendingAddr, ts.pendingArgs, true
}

// SaveIC stores the context copy on the kernel stack (OS-visible).
func (h *NativeHAL) SaveIC(t ThreadID) error {
	ts, err := h.lookup(t)
	if err != nil {
		return err
	}
	if !ts.hasIC {
		return fmt.Errorf("core: thread %d has no interrupt context", t)
	}
	ts.icStack = append(ts.icStack, ts.ic)
	return nil
}

// LoadIC restores the most recent copy.
func (h *NativeHAL) LoadIC(t ThreadID) error {
	ts, err := h.lookup(t)
	if err != nil {
		return err
	}
	if len(ts.icStack) == 0 {
		return fmt.Errorf("core: thread %d has no saved context", t)
	}
	ts.ic = ts.icStack[len(ts.icStack)-1]
	ts.icStack = ts.icStack[:len(ts.icStack)-1]
	return nil
}

// EndThread drops thread state.
func (h *NativeHAL) EndThread(t ThreadID) {
	ts, ok := h.threads[t]
	if !ok {
		return
	}
	for _, va := range sortedGhostVAs(ts.ghost) {
		f := ts.ghost[va]
		_ = h.rawUnmap(ts.root, va)
		if h.m.Mem.Refs(f) == 0 {
			h.frames.PutFrame(f)
		}
	}
	delete(h.threads, t)
	delete(h.appKeys, t)
}

// --- keys (unprotected baseline) ---------------------------------------

// LoadBinary accepts anything; the key section, if present, is treated
// as the plaintext key (the baseline has no machine key to unseal with).
func (h *NativeHAL) LoadBinary(t ThreadID, bin *Binary) error {
	ts := h.thread(t)
	ts.binName = bin.Name
	if len(bin.KeySection) > 0 {
		h.appKeys[t] = append([]byte(nil), bin.KeySection...)
	}
	return nil
}

// GetKey returns the unprotected key.
func (h *NativeHAL) GetKey(t ThreadID) ([]byte, error) {
	k, ok := h.appKeys[t]
	if !ok {
		return nil, ErrNoKey
	}
	return append([]byte(nil), k...), nil
}

// VMPublicKey returns nil: the baseline has no machine key.
func (h *NativeHAL) VMPublicKey() []byte { return nil }

// Random draws from the hardware generator; on the baseline nothing
// stops the kernel from interposing (the Iago randomness attack works
// against /dev/random, which the kernel implements — see the attack
// suite).
func (h *NativeHAL) Random() uint64 { return h.m.RNG.Next() }

// --- unchecked I/O ------------------------------------------------------

// PortIn reads a port directly.
func (h *NativeHAL) PortIn(port uint16) (uint64, error) {
	h.m.Clock.Charge(hw.TagIO, hw.CostMemAccess)
	return h.m.Ports.In(port), nil
}

// PortOut writes a port directly — including IOMMU programming that
// exposes anything at all to DMA.
func (h *NativeHAL) PortOut(port uint16, v uint64) error {
	h.m.Clock.Charge(hw.TagIO, hw.CostMemAccess)
	h.m.Ports.Out(port, v)
	return nil
}

// --- costs (no instrumentation) ----------------------------------------

// KAccess charges the bare memory-access cost.
func (h *NativeHAL) KAccess(n int) {
	h.m.Clock.Charge(hw.TagMemAccess, uint64(n)*hw.CostMemAccess)
}

// OnIndirectCall charges the bare call cost.
func (h *NativeHAL) OnIndirectCall(n int) {
	h.m.Clock.Charge(hw.TagEngine, uint64(n)*hw.CostCall)
}

// BlockCopyCost charges the bare copy cost.
func (h *NativeHAL) BlockCopyCost(n int) {
	h.m.Clock.ChargeBytes(hw.TagMemAccess, n, hw.CostBcopyPerByte)
}

// --- uninstrumented kernel memory access --------------------------------

// KLoad reads exactly what the MMU maps — including application "ghost"
// pages, since nothing masks the address.
func (h *NativeHAL) KLoad(rootF hw.Frame, va hw.Virt, size int) (uint64, error) {
	h.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	p, err := h.translateIn(rootF, va, hw.AccRead)
	if err != nil {
		return 0, err
	}
	return h.m.Mem.ReadLE(p, size)
}

// KStore writes exactly where the MMU maps.
func (h *NativeHAL) KStore(rootF hw.Frame, va hw.Virt, size int, v uint64) error {
	h.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	p, err := h.translateIn(rootF, va, hw.AccWrite)
	if err != nil {
		return err
	}
	return h.m.Mem.WriteLE(p, size, v)
}

// Copyin copies len(dst) bytes from user space into dst without
// masking.
func (h *NativeHAL) Copyin(rootF hw.Frame, va hw.Virt, dst []byte) error {
	h.BlockCopyCost(len(dst))
	for len(dst) > 0 {
		chunk := min(len(dst), int(hw.PageSize-(va&(hw.PageSize-1))))
		p, err := h.translateIn(rootF, va, hw.AccRead)
		if err != nil {
			return err
		}
		if err := h.m.Mem.ReadPhysInto(p, dst[:chunk]); err != nil {
			return err
		}
		va += hw.Virt(chunk)
		dst = dst[chunk:]
	}
	return nil
}

// Copyout copies to user space without masking.
func (h *NativeHAL) Copyout(rootF hw.Frame, va hw.Virt, b []byte) error {
	h.BlockCopyCost(len(b))
	for len(b) > 0 {
		chunk := min(len(b), int(hw.PageSize-(va&(hw.PageSize-1))))
		p, err := h.translateIn(rootF, va, hw.AccWrite)
		if err != nil {
			return err
		}
		if err := h.m.Mem.WritePhys(p, b[:chunk]); err != nil {
			return err
		}
		va += hw.Virt(chunk)
		b = b[chunk:]
	}
	return nil
}

var _ HAL = (*NativeHAL)(nil)

// OnVMRegion is free natively (no hypervisor region bookkeeping).
func (h *NativeHAL) OnVMRegion(npages int) {}
