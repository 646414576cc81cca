package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/vir"
	"repro/internal/vir/virref"
)

// buildPoker builds a module function that stores then loads at an
// address: poke8(addr, v) -> loaded value.
func buildPoker() *vir.Module {
	m := vir.NewModule("poker")
	b := vir.NewFunction("poke8", 2)
	b.Store(b.Param(0), b.Param(1), 8)
	b.Ret(b.Load(b.Param(0), 8))
	if err := m.AddFunc(b.Fn()); err != nil {
		panic(err)
	}
	io := vir.NewFunction("ioprobe", 2)
	io.PortOut(io.Param(0), io.Param(1))
	io.Ret(io.PortIn(io.Param(0)))
	if err := m.AddFunc(io.Fn()); err != nil {
		panic(err)
	}
	return m
}

func TestModuleEnvKernelScratchCoherentWithKLoad(t *testing.T) {
	vm, _ := newVM(t)
	tr, err := vm.TranslateModule(buildPoker())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := tr.Entry("poke8")
	f, _ := vm.CodeSpace().FuncByAddr(addr)
	env := vm.ModuleEnv(0, nil)
	ip := virref.NewInterp(env)
	const kva = 0xffffff8000200000
	got, err := ip.Call(f, kva, 0xfeedface)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xfeedface {
		t.Fatalf("module store/load = %#x", got)
	}
	// The Go-kernel accessor sees the same kernel memory image.
	v, err := vm.KLoad(0, kva, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeedface {
		t.Errorf("KLoad sees %#x; module env and kernel scratch diverge", v)
	}
}

func TestModuleEnvUserMemory(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	f, _ := m.Mem.AllocFrame(hw.FrameUserData)
	_ = m.Mem.ZeroFrame(f)
	if err := vm.MapPage(root, 0x400000, f, hw.PTEUser|hw.PTEWrite); err != nil {
		t.Fatal(err)
	}
	tr, err := vm.TranslateModule(vir.NewModule("empty"))
	_ = tr
	if err != nil {
		t.Fatal(err)
	}
	env := vm.ModuleEnv(root, nil)
	if err := env.Store(0x400010, 4, 0xabcd); err != nil {
		t.Fatal(err)
	}
	v, err := env.Load(0x400010, 4)
	if err != nil || v != 0xabcd {
		t.Fatalf("user load = %#x, %v", v, err)
	}
	// The store really landed in the frame.
	b, _ := m.Mem.FrameBytes(f)
	if b[0x10] != 0xcd || b[0x11] != 0xab {
		t.Errorf("frame bytes: % x", b[0x10:0x12])
	}
	// Unmapped user addresses fault.
	if _, err := env.Load(0x500000, 8); err == nil {
		t.Errorf("unmapped user load succeeded")
	}
}

func TestModuleEnvMemcpy(t *testing.T) {
	vm, _ := newVM(t)
	env := vm.ModuleEnv(0, nil)
	const a, b = 0xffffff8000300000, 0xffffff8000300100
	for i := uint64(0); i < 8; i++ {
		if err := env.Store(hw.Virt(a+i), 1, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Memcpy(b, a, 8); err != nil {
		t.Fatal(err)
	}
	v, _ := env.Load(b, 8)
	if v != 0x0807060504030201 {
		t.Errorf("memcpy = %#x", v)
	}
}

func TestModuleEnvPortIOCheckedUnderVG(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	var ghostFrame hw.Frame
	for fr := hw.Frame(1); fr < 2048; fr++ {
		if m.Mem.TypeOf(fr) == hw.FrameGhost {
			ghostFrame = fr
			break
		}
	}
	tr, err := vm.TranslateModule(buildPoker())
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	addr, _ := vm.CodeSpace().FuncAddr("ioprobe")
	f, _ := vm.CodeSpace().FuncByAddr(addr)
	env := vm.ModuleEnv(root, nil)
	ip := virref.NewInterp(env)
	// Latch the ghost frame, then try to allow it: the checked port
	// write must fail mid-execution.
	if _, err := ip.Call(f, uint64(hw.IOMMUPortFrame), uint64(ghostFrame)); err != nil {
		t.Fatalf("latching failed: %v", err)
	}
	if _, err := ip.Call(f, uint64(hw.IOMMUPortCmd), hw.IOMMUCmdAllow); err == nil {
		t.Errorf("module exposed a ghost frame to DMA through checked I/O")
	}
	if m.IOMMU.Allowed(ghostFrame) {
		t.Errorf("IOMMU table contains the ghost frame")
	}
}

func TestModuleEnvCodeSpaceResolution(t *testing.T) {
	vm, _ := newVM(t)
	tr, err := vm.TranslateModule(buildPoker())
	if err != nil {
		t.Fatal(err)
	}
	env := vm.ModuleEnv(0, nil)
	addr, ok := env.FuncAddr("poke8")
	if !ok {
		t.Fatal("FuncAddr failed")
	}
	if got, _ := tr.Entry("poke8"); got != addr {
		t.Errorf("env and translation disagree on the entry address")
	}
	if !env.InKernelCode(addr) {
		t.Errorf("module entry outside kernel code")
	}
	if env.InKernelCode(0x1000) {
		t.Errorf("user address reported as kernel code")
	}
}
