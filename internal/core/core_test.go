package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

// testFrames is a FrameSource over a machine's memory.
type testFrames struct{ m *hw.Memory }

func (t testFrames) GetFrame() (hw.Frame, error) { return t.m.AllocFrame(hw.FrameUserData) }
func (t testFrames) PutFrame(f hw.Frame)         { _ = t.m.FreeFrame(f) }

func newVM(t *testing.T) (*VM, *hw.Machine) {
	t.Helper()
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 2048, DiskBlocks: 64, Seed: 1})
	vm, err := NewVM(m)
	if err != nil {
		t.Fatal(err)
	}
	vm.RegisterFrameSource(testFrames{m: m.Mem})
	vm.RegisterTrapHandler(func(ic IContext, kind hw.TrapKind, info uint64) {})
	return vm, m
}

func newNative(t *testing.T) (*NativeHAL, *hw.Machine) {
	t.Helper()
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 2048, DiskBlocks: 64, Seed: 1})
	h, err := NewNativeHAL(m)
	if err != nil {
		t.Fatal(err)
	}
	h.RegisterFrameSource(testFrames{m: m.Mem})
	h.RegisterTrapHandler(func(ic IContext, kind hw.TrapKind, info uint64) {})
	return h, m
}

// --- MMU policy checks ---------------------------------------------------

func TestVMRefusesMappingGhostVA(t *testing.T) {
	vm, _ := newVM(t)
	root, err := vm.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := vm.getFrame()
	err = vm.MapPage(root, hw.GhostBase+0x1000, f, hw.PTEUser|hw.PTEWrite)
	if !errors.Is(err, ErrGhostMapping) {
		t.Errorf("mapping into ghost partition: %v", err)
	}
}

func TestVMRefusesMappingGhostFrame(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	var ghostFrame hw.Frame
	for f := hw.Frame(1); f < 2048; f++ {
		if vm.m.Mem.TypeOf(f) == hw.FrameGhost {
			ghostFrame = f
			break
		}
	}
	if ghostFrame == 0 {
		t.Fatal("no ghost frame found")
	}
	err := vm.MapPage(root, 0x400000, ghostFrame, hw.PTEWrite)
	if !errors.Is(err, ErrGhostMapping) {
		t.Errorf("mapping a ghost frame: %v", err)
	}
	// And it cannot become a page-table page either.
	if err := vm.DeclarePTP(ghostFrame); !errors.Is(err, ErrBadFrameForPTP) {
		t.Errorf("ghost frame declared as PTP: %v", err)
	}
}

func TestVMRefusesSVAMappings(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := vm.NewAddressSpace()
	f, _ := vm.getFrame()
	if err := vm.MapPage(root, 0xffffff9000001000, f, hw.PTEWrite); !errors.Is(err, ErrSVAMapping) {
		t.Errorf("mapping into SVA internal memory: %v", err)
	}
	var svaFrame hw.Frame
	for fr := hw.Frame(1); fr < 2048; fr++ {
		if vm.m.Mem.TypeOf(fr) == hw.FrameSVA {
			svaFrame = fr
			break
		}
	}
	if svaFrame == 0 {
		t.Fatal("no SVA frame reserved at boot")
	}
	if err := vm.MapPage(root, 0x400000, svaFrame, 0); !errors.Is(err, ErrSVAMapping) {
		t.Errorf("mapping an SVA frame: %v", err)
	}
}

func TestVMRefusesWritablePTP(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := vm.NewAddressSpace()
	err := vm.MapPage(root, 0x400000, root, hw.PTEWrite)
	if !errors.Is(err, ErrPTPMapping) {
		t.Errorf("writable mapping of a page-table page: %v", err)
	}
	// Read-only aliasing of a PTP is permitted (the OS may inspect).
	if err := vm.MapPage(root, 0x400000, root, 0); err != nil {
		t.Errorf("read-only PTP mapping refused: %v", err)
	}
}

func TestVMRefusesUndeclaredRoot(t *testing.T) {
	vm, _ := newVM(t)
	f, _ := vm.getFrame() // still FrameUserData
	if err := vm.LoadAddressSpace(f); err == nil {
		t.Errorf("CR3 load of a non-PTP frame accepted")
	}
}

func TestNativeAllowsEverything(t *testing.T) {
	h, _ := newNative(t)
	root, _ := h.NewAddressSpace()
	if err := h.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	// The native HAL happily maps the "ghost" frame elsewhere.
	var frame hw.Frame
	ts := h.threads[1]
	for _, f := range ts.ghost {
		frame = f
	}
	if err := h.MapPage(root, 0x400000, frame, hw.PTEWrite); err != nil {
		t.Errorf("native remap refused: %v", err)
	}
}

// --- ghost memory ---------------------------------------------------------

func TestGhostAllocZeroesAndMaps(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	// Dirty a frame, free it, and make sure ghost allocation scrubs.
	f, _ := m.Mem.AllocFrame(hw.FrameUserData)
	b, _ := m.Mem.FrameBytes(f)
	copy(b, []byte("stale secrets"))
	_ = m.Mem.FreeFrame(f)
	if err := vm.AllocGhost(1, root, hw.GhostBase, 2); err != nil {
		t.Fatal(err)
	}
	if vm.GhostPages(1) != 2 {
		t.Errorf("ghost pages = %d", vm.GhostPages(1))
	}
	for va := hw.GhostBase; va < hw.GhostBase+2*hw.PageSize; va += hw.PageSize {
		ff := vm.threads[1].ghost[va]
		bb, _ := m.Mem.FrameBytes(ff)
		for _, v := range bb {
			if v != 0 {
				t.Fatalf("ghost page not zeroed")
			}
		}
	}
}

func TestGhostRangeValidation(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := vm.NewAddressSpace()
	cases := []struct {
		va hw.Virt
		n  int
	}{
		{hw.GhostBase + 1, 1},          // misaligned
		{hw.GhostBase, 0},              // zero pages
		{hw.UserBase, 1},               // outside partition
		{hw.GhostTop - hw.PageSize, 2}, // overflows partition
	}
	for _, c := range cases {
		if err := vm.AllocGhost(1, root, c.va, c.n); err == nil {
			t.Errorf("alloc %#x/%d accepted", uint64(c.va), c.n)
		}
	}
}

func TestGhostDoubleAllocRefused(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err == nil {
		t.Errorf("double allocation accepted")
	}
}

func TestGhostFreeScrubsAndReturns(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := m.Mem.FrameBytes(f)
	copy(b, []byte("ghost data"))
	if err := vm.FreeGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	if m.Mem.TypeOf(f) != hw.FrameFree {
		t.Errorf("frame not returned: %v", m.Mem.TypeOf(f))
	}
	// Contents must be scrubbed before the OS can look.
	bb, _ := m.Mem.FrameBytes(f)
	if bytes.Contains(bb, []byte("ghost")) {
		t.Errorf("freed ghost frame leaked contents")
	}
}

func TestGhostInheritance(t *testing.T) {
	vm, m := newVM(t)
	root1, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root1, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := m.Mem.FrameBytes(f)
	copy(b, []byte("shared"))
	root2, _ := vm.NewAddressSpace()
	if err := vm.InheritGhost(1, 2, root2); err != nil {
		t.Fatal(err)
	}
	if vm.threads[2].ghost[hw.GhostBase] != f {
		t.Errorf("child does not share the parent's frame")
	}
}

// --- swap -------------------------------------------------------------------

func setupGhostPage(t *testing.T, vm *VM) (root hw.Frame, secret []byte) {
	t.Helper()
	root, err := vm.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	secret = []byte("swap me but never read me")
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := vm.m.Mem.FrameBytes(f)
	copy(b, secret)
	return root, secret
}

func TestSwapRoundTrip(t *testing.T) {
	vm, _ := newVM(t)
	_, secret := setupGhostPage(t, vm)
	blob, err := vm.SwapOutGhost(1, hw.GhostBase)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, secret) {
		t.Errorf("swap blob contains plaintext")
	}
	if vm.GhostPages(1) != 0 {
		t.Errorf("page still resident after swap-out")
	}
	if err := vm.SwapInGhost(1, hw.GhostBase, blob); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := vm.m.Mem.FrameBytes(f)
	if !bytes.HasPrefix(b, secret) {
		t.Errorf("swap-in restored wrong contents")
	}
}

func TestSwapInRejectsCorruption(t *testing.T) {
	vm, _ := newVM(t)
	setupGhostPage(t, vm)
	blob, _ := vm.SwapOutGhost(1, hw.GhostBase)
	blob[10] ^= 0xff
	if err := vm.SwapInGhost(1, hw.GhostBase, blob); !errors.Is(err, ErrSwap) {
		t.Errorf("corrupt blob accepted: %v", err)
	}
}

func TestSwapInRejectsReplay(t *testing.T) {
	vm, _ := newVM(t)
	setupGhostPage(t, vm)
	old, _ := vm.SwapOutGhost(1, hw.GhostBase)
	// Restore and swap out again: the page now has a newer version.
	if err := vm.SwapInGhost(1, hw.GhostBase, old); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := vm.m.Mem.FrameBytes(f)
	copy(b, []byte("version 2"))
	if _, err := vm.SwapOutGhost(1, hw.GhostBase); err != nil {
		t.Fatal(err)
	}
	// Replaying the stale blob must fail.
	if err := vm.SwapInGhost(1, hw.GhostBase, old); !errors.Is(err, ErrSwap) {
		t.Errorf("replayed stale blob accepted: %v", err)
	}
}

func TestSwapInRejectsWrongAddress(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := setupGhostPage(t, vm)
	if err := vm.AllocGhost(1, root, hw.GhostBase+hw.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	blob, _ := vm.SwapOutGhost(1, hw.GhostBase)
	// Swapping page A's blob in at page B must fail even if the OS
	// forges the bookkeeping by also swapping B out.
	if _, err := vm.SwapOutGhost(1, hw.GhostBase+hw.PageSize); err != nil {
		t.Fatal(err)
	}
	err := vm.SwapInGhost(1, hw.GhostBase+hw.PageSize, blob)
	if !errors.Is(err, ErrSwap) {
		t.Errorf("cross-address swap-in accepted: %v", err)
	}
}

// --- keys & binaries ---------------------------------------------------------

func TestBinaryLifecycle(t *testing.T) {
	vm, _ := newVM(t)
	key := make([]byte, 32)
	key[0] = 0x77
	bin, err := vm.Installer().Install("/bin/app", []byte("code"), key)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.LoadBinary(5, bin); err != nil {
		t.Fatal(err)
	}
	got, err := vm.GetKey(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Errorf("key mismatch")
	}
}

// TestBinaryTamperDetection: the genuine binary loads first, so its
// signature sits in the verified-binary table; the hostile OS then
// edits that same *Binary in place, one field at a time. Every edit
// must be refused, and the genuine bytes must load again once restored.
func TestBinaryTamperDetection(t *testing.T) {
	vm, _ := newVM(t)
	key := make([]byte, 32)
	bin, _ := vm.Installer().Install("/bin/app", []byte("code"), key)
	if err := vm.LoadBinary(5, bin); err != nil {
		t.Fatalf("genuine binary refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(b *Binary) (restore func())
	}{
		{"image", func(b *Binary) func() {
			b.Image[0] ^= 1
			return func() { b.Image[0] ^= 1 }
		}},
		{"key section", func(b *Binary) func() {
			b.KeySection[0] ^= 1
			return func() { b.KeySection[0] ^= 1 }
		}},
		{"name", func(b *Binary) func() {
			name := b.Name
			b.Name = "/bin/other"
			return func() { b.Name = name }
		}},
		{"signature", func(b *Binary) func() {
			b.Signature[0] ^= 1
			return func() { b.Signature[0] ^= 1 }
		}},
		{"truncated signature", func(b *Binary) func() {
			sig := b.Signature
			b.Signature = sig[:len(sig)-1]
			return func() { b.Signature = sig }
		}},
	} {
		restore := tc.tamper(bin)
		if err := vm.LoadBinary(5, bin); !errors.Is(err, ErrBadBinary) {
			t.Errorf("%s tamper accepted: %v", tc.name, err)
		}
		restore()
		if err := vm.LoadBinary(5, bin); err != nil {
			t.Errorf("genuine binary refused after the %s tamper was undone: %v", tc.name, err)
		}
	}
}

func TestGetKeyWithoutBinary(t *testing.T) {
	vm, _ := newVM(t)
	vm.thread(9)
	if _, err := vm.GetKey(9); !errors.Is(err, ErrNoKey) {
		t.Errorf("key without binary: %v", err)
	}
}

func TestKeyChainDeterministicPerTPM(t *testing.T) {
	m1 := hw.NewMachine(hw.MachineConfig{MemFrames: 256, DiskBlocks: 16, Seed: 5})
	m2 := hw.NewMachine(hw.MachineConfig{MemFrames: 256, DiskBlocks: 16, Seed: 5})
	vm1, _ := NewVM(m1)
	vm2, _ := NewVM(m2)
	if !bytes.Equal(vm1.VMPublicKey(), vm2.VMPublicKey()) {
		t.Errorf("same TPM seed produced different machine keys")
	}
	m3 := hw.NewMachine(hw.MachineConfig{MemFrames: 256, DiskBlocks: 16, Seed: 6})
	vm3, _ := NewVM(m3)
	if bytes.Equal(vm1.VMPublicKey(), vm3.VMPublicKey()) {
		t.Errorf("different TPM seeds produced the same machine key")
	}
}

// --- IC operations --------------------------------------------------------------

func TestIPushRefusedWithoutPermit(t *testing.T) {
	vm, _ := newVM(t)
	vm.SetCurrentThread(3)
	var captured IContext
	vm.RegisterTrapHandler(func(ic IContext, kind hw.TrapKind, info uint64) {
		captured = ic
	})
	vm.Syscall(1, [6]uint64{})
	if captured == nil {
		t.Fatal("no trap delivered")
	}
	if err := vm.IPushFunction(captured, 0x1234); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("unregistered handler accepted: %v", err)
	}
	if err := vm.PermitFunction(3, 0x1234); err != nil {
		t.Fatal(err)
	}
	if err := vm.IPushFunction(captured, 0x1234, 7); err != nil {
		t.Errorf("registered handler refused: %v", err)
	}
	addr, args, ok := vm.PoppedHandler(3)
	if !ok || addr != 0x1234 || len(args) != 1 || args[0] != 7 {
		t.Errorf("pending handler = %#x %v %v", addr, args, ok)
	}
	// Consumed.
	if _, _, ok := vm.PoppedHandler(3); ok {
		t.Errorf("handler delivered twice")
	}
}

func TestVGICHidesRawFrame(t *testing.T) {
	vm, _ := newVM(t)
	vm.SetCurrentThread(1)
	var ic IContext
	vm.RegisterTrapHandler(func(i IContext, kind hw.TrapKind, info uint64) { ic = i })
	vm.Syscall(42, [6]uint64{1, 2, 3, 4, 5, 6})
	if _, ok := ic.(RawFramer); ok {
		t.Errorf("Virtual Ghost IC exposes the raw frame")
	}
	if ic.SyscallNum() != 42 || ic.Arg(0) != 1 || ic.Arg(5) != 6 {
		t.Errorf("checked accessors wrong")
	}
	if ic.Arg(6) != 0 || ic.Arg(-1) != 0 {
		t.Errorf("out-of-range args should read 0")
	}
}

func TestNativeICExposesRawFrame(t *testing.T) {
	h, _ := newNative(t)
	h.SetCurrentThread(1)
	var ic IContext
	h.RegisterTrapHandler(func(i IContext, kind hw.TrapKind, info uint64) { i.SetRet(9); ic = i })
	ret := h.Syscall(1, [6]uint64{})
	if ret != 9 {
		t.Errorf("ret = %d", ret)
	}
	if _, ok := ic.(RawFramer); !ok {
		t.Errorf("native IC should expose the raw frame")
	}
}

func TestVGZeroesRegistersOnTrap(t *testing.T) {
	vm, m := newVM(t)
	vm.SetCurrentThread(1)
	leaked := uint64(0)
	vm.RegisterTrapHandler(func(ic IContext, kind hw.TrapKind, info uint64) {
		// A hostile kernel peeks at the live register file looking for
		// interrupted application state.
		leaked = m.CPU.Regs.GPR[hw.R12]
	})
	m.CPU.Regs.GPR[hw.R12] = 0x5ec2e7
	vm.Syscall(1, [6]uint64{})
	if leaked != 0 {
		t.Errorf("callee-saved register leaked into the kernel: %#x", leaked)
	}
}

func TestNativeLeaksRegistersOnTrap(t *testing.T) {
	h, m := newNative(t)
	h.SetCurrentThread(1)
	leaked := uint64(0)
	h.RegisterTrapHandler(func(ic IContext, kind hw.TrapKind, info uint64) {
		leaked = m.CPU.Regs.GPR[hw.R12]
	})
	m.CPU.Regs.GPR[hw.R12] = 0x5ec2e7
	h.Syscall(1, [6]uint64{})
	if leaked != 0x5ec2e7 {
		t.Errorf("native kernel should see interrupted registers, got %#x", leaked)
	}
}

func TestSaveLoadICStack(t *testing.T) {
	vm, _ := newVM(t)
	vm.SetCurrentThread(1)
	var ic IContext
	vm.RegisterTrapHandler(func(i IContext, kind hw.TrapKind, info uint64) { ic = i })
	vm.Syscall(7, [6]uint64{})
	if err := vm.SaveIC(1); err != nil {
		t.Fatal(err)
	}
	ic.SetRet(123) // signal handler runs, mutating state
	if err := vm.LoadIC(1); err != nil {
		t.Fatal(err)
	}
	if vm.threads[1].ic.Regs.GPR[hw.RAX] == 123 {
		t.Errorf("sigreturn did not restore the pre-signal context")
	}
	if err := vm.LoadIC(1); err == nil {
		t.Errorf("empty IC stack pop accepted")
	}
}

// --- kernel memory access & masking ----------------------------------------

func TestKLoadMasksGhost(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := m.Mem.FrameBytes(f)
	copy(b, []byte{0xde, 0xad})
	v, err := vm.KLoad(root, hw.GhostBase, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0xadde {
		t.Errorf("masked kernel load returned ghost data")
	}
	// Writes land in kernel scratch, not the ghost frame.
	if err := vm.KStore(root, hw.GhostBase, 2, 0xffff); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xde || b[1] != 0xad {
		t.Errorf("masked kernel store reached ghost memory")
	}
}

func TestCopyinMasksGhostPointers(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := m.Mem.FrameBytes(f)
	copy(b, []byte("ghost-contents"))
	got := make([]byte, 14)
	if err := vm.Copyin(root, hw.GhostBase, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("ghost-contents")) {
		t.Errorf("copyin read ghost memory")
	}
}

// TestScratchCoherence: masked kernel stores and loads are coherent with
// each other (the direct-map model), property-checked.
func TestScratchCoherence(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := vm.NewAddressSpace()
	fn := func(off uint32, v uint64) bool {
		va := hw.KernBase + hw.Virt(off)
		if err := vm.KStore(root, va, 8, v); err != nil {
			return false
		}
		got, err := vm.KLoad(root, va, 8)
		return err == nil && got == v
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- checked I/O ------------------------------------------------------------

func TestVMRefusesIOMMUExposure(t *testing.T) {
	vm, _ := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	if err := vm.PortOut(hw.IOMMUPortFrame, uint64(f)); err != nil {
		t.Fatal(err)
	}
	if err := vm.PortOut(hw.IOMMUPortCmd, hw.IOMMUCmdAllow); !errors.Is(err, ErrIOMMUPolicy) {
		t.Errorf("IOMMU exposure of ghost frame: %v", err)
	}
	// Ordinary frames may be exposed.
	uf, _ := vm.getFrame()
	_ = vm.PortOut(hw.IOMMUPortFrame, uint64(uf))
	if err := vm.PortOut(hw.IOMMUPortCmd, hw.IOMMUCmdAllow); err != nil {
		t.Errorf("legitimate DMA setup refused: %v", err)
	}
}

// allowDMA programs the IOMMU through the VM's checked port I/O, as the
// OS does for a device, and requires the VM to accept it.
func allowDMA(t *testing.T, vm *VM, f hw.Frame) {
	t.Helper()
	if err := vm.PortOut(hw.IOMMUPortFrame, uint64(f)); err != nil {
		t.Fatal(err)
	}
	if err := vm.PortOut(hw.IOMMUPortCmd, hw.IOMMUCmdAllow); err != nil {
		t.Fatalf("DMA on user-data frame %d refused: %v", f, err)
	}
}

// handOut is a FrameSource through which the OS hands the VM one chosen
// frame next, then allocates as usual.
type handOut struct {
	testFrames
	next hw.Frame
}

func (h *handOut) GetFrame() (hw.Frame, error) {
	if f := h.next; f != 0 {
		h.next = 0
		return f, nil
	}
	return h.testFrames.GetFrame()
}

// TestDMARetypeToPageTable: DMA allowed on a user-data frame must end
// when the frame becomes a page-table page, or a device could forge
// mappings.
func TestDMARetypeToPageTable(t *testing.T) {
	vm, m := newVM(t)
	f, err := vm.getFrame()
	if err != nil {
		t.Fatal(err)
	}
	allowDMA(t, vm, f)
	if err := vm.DeclarePTP(f); err != nil {
		t.Fatal(err)
	}
	if m.IOMMU.Allowed(f) {
		t.Errorf("page-table frame %d still DMA-allowed", f)
	}
	if err := m.DMA.CopyToFrame(f, bytes.Repeat([]byte{0xff}, hw.PageSize)); err == nil {
		t.Errorf("device DMA wrote into page-table frame %d", f)
	}
	got, err := m.Mem.ReadPhys(f.Addr(), hw.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, hw.PageSize)) {
		t.Errorf("page-table frame %d changed by DMA", f)
	}
}

// TestDMARetypeToGhost: DMA allowed on a user-data frame must end when
// allocgm takes the frame, or a device reads the ghost page's secret.
func TestDMARetypeToGhost(t *testing.T) {
	vm, m := newVM(t)
	root, err := vm.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	f, err := vm.getFrame()
	if err != nil {
		t.Fatal(err)
	}
	allowDMA(t, vm, f)
	vm.RegisterFrameSource(&handOut{testFrames: testFrames{m: m.Mem}, next: f})
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	if got := vm.threads[1].ghost[hw.GhostBase]; got != f {
		t.Fatalf("allocgm took frame %d, want the DMA-allowed frame %d", got, f)
	}
	secret := []byte("ghost secret")
	if err := m.Mem.WritePhys(f.Addr(), secret); err != nil {
		t.Fatal(err)
	}
	if m.IOMMU.Allowed(f) {
		t.Errorf("ghost frame %d still DMA-allowed", f)
	}
	if out, err := m.DMA.CopyFromFrame(f); err == nil {
		t.Errorf("device DMA read ghost frame %d: %q", f, out[:len(secret)])
	}
}

func TestEndThreadScrubsGhost(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 2); err != nil {
		t.Fatal(err)
	}
	f := vm.threads[1].ghost[hw.GhostBase]
	b, _ := m.Mem.FrameBytes(f)
	copy(b, []byte("residual"))
	vm.EndThread(1)
	if vm.GhostPages(1) != 0 {
		t.Errorf("ghost pages survive thread end")
	}
	bb, _ := m.Mem.FrameBytes(f)
	if bytes.Contains(bb, []byte("residual")) {
		t.Errorf("thread teardown leaked ghost contents")
	}
}

func TestTrustedRandomVaries(t *testing.T) {
	vm, _ := newVM(t)
	a, b := vm.Random(), vm.Random()
	if a == b {
		t.Errorf("trusted random repeated")
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeNative, ModeVirtualGhost, ModeShadow} {
		if m.String() == "" || m.String() == "mode?" {
			t.Errorf("bad mode string for %d", int(m))
		}
	}
}
