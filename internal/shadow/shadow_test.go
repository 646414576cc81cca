package shadow

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

type frames struct{ m *hw.Memory }

func (f frames) GetFrame() (hw.Frame, error) { return f.m.AllocFrame(hw.FrameUserData) }
func (f frames) PutFrame(fr hw.Frame)        { _ = f.m.FreeFrame(fr) }

func newShadow(t *testing.T) (*HAL, *hw.Machine) {
	t.Helper()
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 1024, DiskBlocks: 32, Seed: 3})
	h, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	h.RegisterFrameSource(frames{m: m.Mem})
	h.RegisterTrapHandler(func(ic core.IContext, kind hw.TrapKind, info uint64) {})
	h.SetCurrentThread(1)
	return h, m
}

func TestModeIsShadow(t *testing.T) {
	h, _ := newShadow(t)
	if h.Mode() != core.ModeShadow {
		t.Errorf("mode = %v", h.Mode())
	}
}

func TestSyscallPaysHypervisorCrossings(t *testing.T) {
	h, m := newShadow(t)
	before := m.Clock.Cycles()
	h.Syscall(1, [6]uint64{})
	shadowCost := m.Clock.Cycles() - before

	// Compare with a pure native HAL on an identical machine.
	m2 := hw.NewMachine(hw.MachineConfig{MemFrames: 1024, DiskBlocks: 32, Seed: 3})
	n, _ := core.NewNativeHAL(m2)
	n.RegisterTrapHandler(func(ic core.IContext, kind hw.TrapKind, info uint64) {})
	n.SetCurrentThread(1)
	before = m2.Clock.Cycles()
	n.Syscall(1, [6]uint64{})
	nativeCost := m2.Clock.Cycles() - before

	if shadowCost < nativeCost+2*CostVMExit {
		t.Errorf("shadow syscall %d cycles, native %d: missing VM exits", shadowCost, nativeCost)
	}
}

func TestMMUOpsPayHypercalls(t *testing.T) {
	h, m := newShadow(t)
	root, err := h.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := m.Mem.AllocFrame(hw.FrameUserData)
	before := m.Clock.Cycles()
	if err := h.MapPage(root, 0x400000, f, hw.PTEUser|hw.PTEWrite); err != nil {
		t.Fatal(err)
	}
	if m.Clock.Cycles()-before < CostMMUHypercall {
		t.Errorf("MapPage did not pay the hypercall")
	}
	before = m.Clock.Cycles()
	if err := h.UnmapPage(root, 0x400000); err != nil {
		t.Fatal(err)
	}
	if got := m.Clock.Cycles() - before; got < CostMMUHypercall/8 {
		t.Errorf("UnmapPage cost %d", got)
	}
}

func TestCopyinPaysPerPageShadowing(t *testing.T) {
	h, m := newShadow(t)
	root, _ := h.NewAddressSpace()
	f, _ := m.Mem.AllocFrame(hw.FrameUserData)
	if err := h.MapPage(root, 0x400000, f, hw.PTEUser|hw.PTEWrite); err != nil {
		t.Fatal(err)
	}
	before := m.Clock.Cycles()
	if err := h.Copyin(root, 0x400000, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if m.Clock.Cycles()-before < CostShadowPage {
		t.Errorf("copyin did not pay page shadowing")
	}
}

// TestShadowDoesNotProtect: unlike Virtual Ghost, the shadowing model
// here is a cost baseline — the kernel can still read application pages
// (InkTag only detects tampering cryptographically; it does not deny
// access).
func TestShadowDoesNotPreventAccess(t *testing.T) {
	h, m := newShadow(t)
	root, _ := h.NewAddressSpace()
	if err := h.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	v, err := h.KLoad(root, hw.GhostBase, 8)
	if err != nil {
		t.Fatalf("shadow KLoad failed: %v", err)
	}
	_ = v // readable (encrypted in the real system; cost charged here)
	if m.Clock.Cycles() == 0 {
		t.Errorf("no time charged")
	}
}

// TestShadowReadsAreCiphertext: the kernel can reach a protected page
// but sees only the encrypted view — the Overshadow/InkTag semantics
// the paper contrasts with Virtual Ghost's outright denial.
func TestShadowReadsAreCiphertext(t *testing.T) {
	h, m := newShadow(t)
	root, _ := h.NewAddressSpace()
	if err := h.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	// Write the secret directly into the backing frame (the app's own
	// plaintext view).
	var frame hw.Frame
	for f := hw.Frame(1); f < 1024; f++ {
		if m.Mem.Refs(f) > 0 && m.Mem.TypeOf(f) == hw.FrameUserData {
			frame = f
		}
	}
	if frame == 0 {
		t.Fatal("no backing frame")
	}
	b, _ := m.Mem.FrameBytes(frame)
	copy(b, []byte("plaintext-secret"))
	v, err := h.KLoad(root, hw.GhostBase, 8)
	if err != nil {
		t.Fatal(err)
	}
	var plain uint64
	for i := 7; i >= 0; i-- {
		plain = plain<<8 | uint64(b[i])
	}
	if v == plain {
		t.Errorf("shadow kernel read returned plaintext")
	}
	blob := make([]byte, 16)
	if err := h.Copyin(root, hw.GhostBase, blob); err != nil {
		t.Fatal(err)
	}
	if string(blob) == "plaintext-secret" {
		t.Errorf("shadow copyin returned plaintext")
	}
}
