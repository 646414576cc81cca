package hw

import (
	"strings"
	"testing"
)

// smpMachine builds an n-CPU machine with a small address space mapped
// in, returning the machine and the root frame.
func smpMachine(t *testing.T, n int) (*Machine, Frame) {
	t.Helper()
	m := NewMachine(MachineConfig{MemFrames: 256, DiskBlocks: 16, Seed: 1, NumCPUs: n})
	root, err := m.Mem.AllocFrame(FramePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.ZeroFrame(root); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.CPUs {
		c.MMU.SetRoot(root)
	}
	return m, root
}

// prime loads va into cpu's TLB via a translation.
func prime(t *testing.T, c *CPU, va Virt) {
	t.Helper()
	if _, err := c.MMU.Translate(va, AccRead, false); err != nil {
		t.Fatalf("cpu%d translate %#x: %v", c.ID, uint64(va), err)
	}
}

func TestMachineDefaultsToOneCPU(t *testing.T) {
	m := NewMachine(MachineConfig{MemFrames: 64, DiskBlocks: 16, Seed: 1})
	if m.NumCPUs() != 1 {
		t.Fatalf("NumCPUs = %d, want 1", m.NumCPUs())
	}
	if m.CPUs[0] != m.CPU || m.Cur() != m.CPU || m.CurMMU() != m.MMU {
		t.Fatal("boot CPU aliases are wrong")
	}
	// The shootdown fast path must be free on single-CPU machines so
	// golden cycle counts stay bit-identical.
	before := m.Clock.Cycles()
	if n := m.ShootdownFrame(5); n != 0 {
		t.Fatalf("ShootdownFrame on 1 CPU flushed %d remotes", n)
	}
	if m.Clock.Cycles() != before {
		t.Fatal("single-CPU shootdown charged cycles")
	}
}

func TestCPUsSharePhysicalMemory(t *testing.T) {
	m, root := smpMachine(t, 2)
	va := Virt(0x400000)
	f := mapOne(t, m.Mem, m.MMU, root, va, PTEWrite|PTEUser)

	// Both CPUs resolve the same mapping.
	for _, c := range m.CPUs {
		p, err := c.MMU.Translate(va, AccRead, false)
		if err != nil {
			t.Fatalf("cpu%d: %v", c.ID, err)
		}
		if FrameOf(p) != f {
			t.Fatalf("cpu%d resolved frame %d, want %d", c.ID, FrameOf(p), f)
		}
	}
	// TLBs are private: flushing CPU0 must not disturb CPU1.
	m.CPUs[0].MMU.FlushTLB()
	if m.CPUs[0].MMU.HoldsFrame(f) {
		t.Fatal("cpu0 TLB survived flush")
	}
	if !m.CPUs[1].MMU.HoldsFrame(f) {
		t.Fatal("cpu1 TLB lost its entry to a cpu0 flush")
	}
}

func TestSendAndDrainIPIsChargeCycles(t *testing.T) {
	m, _ := smpMachine(t, 2)
	before := m.Clock.Cycles()
	m.SendIPI(1, IPIResched, 42)
	if got := m.Clock.Cycles() - before; got != CostIPISend {
		t.Fatalf("SendIPI charged %d cycles, want %d", got, CostIPISend)
	}
	if m.PendingIPIs(1) != 1 {
		t.Fatalf("cpu1 has %d pending IPIs, want 1", m.PendingIPIs(1))
	}
	// Self-IPIs are dropped.
	m.SendIPI(0, IPIResched, 0)
	if m.PendingIPIs(0) != 0 {
		t.Fatal("self-IPI was queued")
	}
	before = m.Clock.Cycles()
	if n := m.DrainIPIs(1); n != 1 {
		t.Fatalf("DrainIPIs = %d, want 1", n)
	}
	if got := m.Clock.Cycles() - before; got != CostIPIDeliver {
		t.Fatalf("DrainIPIs charged %d cycles, want %d", got, CostIPIDeliver)
	}
	sent, delivered, _ := m.IPICounts()
	if sent != 1 || delivered != 1 {
		t.Fatalf("IPICounts = (%d,%d), want (1,1)", sent, delivered)
	}
}

func TestShootdownFlushesRemoteTLBs(t *testing.T) {
	m, root := smpMachine(t, 4)
	va := Virt(0x400000)
	f := mapOne(t, m.Mem, m.MMU, root, va, PTEWrite|PTEUser)
	for _, c := range m.CPUs {
		prime(t, c, va)
	}

	before := m.Clock.Cycles()
	if n := m.ShootdownFrame(f); n != 3 {
		t.Fatalf("ShootdownFrame flushed %d remotes, want 3", n)
	}
	want := uint64(3) * (CostIPISend + CostIPIDeliver)
	if got := m.Clock.Cycles() - before; got != want {
		t.Fatalf("shootdown charged %d cycles, want %d", got, want)
	}
	for _, c := range m.CPUs[1:] {
		if c.MMU.HoldsFrame(f) {
			t.Fatalf("cpu%d TLB still holds frame %d after shootdown", c.ID, f)
		}
	}
	// The initiating CPU's TLB is untouched (local invlpg is the
	// caller's separate responsibility).
	if !m.CPUs[0].MMU.HoldsFrame(f) {
		t.Fatal("shootdown flushed the initiating CPU")
	}
}

func TestStaleGuardRefusesFreeAndRetype(t *testing.T) {
	m, root := smpMachine(t, 2)
	va := Virt(0x400000)
	f := mapOne(t, m.Mem, m.MMU, root, va, PTEWrite|PTEUser)
	prime(t, m.CPUs[1], va)

	// Tear the mapping down on CPU0 only: clear the PTE, drop to zero
	// refs, but skip the shootdown. CPU1's TLB is now stale.
	table, idx, ok, err := m.MMU.WalkLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("WalkLeaf: ok=%v err=%v", ok, err)
	}
	if err := m.MMU.RawWritePTE(table, idx, 0); err != nil {
		t.Fatal(err)
	}
	m.MMU.InvalidatePage(va)

	if err := m.Mem.SetType(f, FrameGhost); err == nil {
		t.Fatal("retype to ghost succeeded with a stale remote TLB entry")
	} else if !strings.Contains(err.Error(), "cpu1") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := m.Mem.SetType(f, FrameKernelData); err != nil {
		t.Fatalf("retype to a non-critical type should not be guarded: %v", err)
	}
	if err := m.Mem.SetType(f, FrameUserData); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.FreeFrame(f); err != nil {
		t.Fatalf("freeing a user frame should not be guarded: %v", err)
	}

	// After the shootdown protocol runs, the same retype is legal.
	prime2 := func() {
		if f2, err := m.Mem.AllocFrame(FrameUserData); err != nil || f2 != f {
			t.Fatalf("LIFO reuse broken: got frame %d err %v, want %d", f2, err, f)
		}
	}
	prime2()
	m.ShootdownFrame(f)
	if err := m.Mem.SetType(f, FrameGhost); err != nil {
		t.Fatalf("retype after shootdown: %v", err)
	}

	// A ghost frame free is guarded too: re-prime CPU1 by hand.
	m.CPUs[1].MMU.tlb[va] = tlbEntry{frame: f, flags: PTEPresent}
	if err := m.Mem.FreeFrame(f); err == nil {
		t.Fatal("ghost frame freed with a stale remote TLB entry")
	}
	m.ShootdownFrame(f)
	if err := m.Mem.FreeFrame(f); err != nil {
		t.Fatalf("free after shootdown: %v", err)
	}
}

func TestTLBCoherenceKnobDisablesProtocolAndGuard(t *testing.T) {
	m, root := smpMachine(t, 2)
	va := Virt(0x400000)
	f := mapOne(t, m.Mem, m.MMU, root, va, PTEWrite|PTEUser)
	prime(t, m.CPUs[1], va)

	m.SetTLBCoherence(false)
	if m.TLBCoherent() {
		t.Fatal("TLBCoherent after disabling")
	}
	if n := m.ShootdownFrame(f); n != 0 {
		t.Fatalf("incoherent shootdown flushed %d CPUs", n)
	}
	if !m.CPUs[1].MMU.HoldsFrame(f) {
		t.Fatal("stale entry was flushed despite coherence off")
	}
	// Guard is off too: the retype that TestStaleGuard refuses sails
	// through — this is the hole the attack vector drives through.
	table, idx, _, err := m.MMU.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MMU.RawWritePTE(table, idx, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.SetType(f, FrameGhost); err != nil {
		t.Fatalf("guard still active with coherence off: %v", err)
	}
}

// TestSnapshotRefusedDuringUserPhase checks both snapshot guards. The
// segments of an open user phase have charged their CPUs' ledgers but
// not yet joined the clock, so an image captured then would break the
// ledger-sums-to-total invariant, and a restore would be undone by the
// phase's end; capture and restore (CheckSnap) run only between phases.
func TestSnapshotRefusedDuringUserPhase(t *testing.T) {
	m, _ := smpMachine(t, 2)
	snap, err := m.CaptureSnap()
	if err != nil {
		t.Fatal(err)
	}
	m.Clock.BeginUserPhase()
	m.Clock.BeginSegment(1, 7)
	m.Clock.Charge(TagCompute, 100)
	if _, err := m.CaptureSnap(); err == nil {
		t.Error("CaptureSnap succeeded inside a user phase")
	}
	if err := m.CheckSnap(snap); err == nil {
		t.Error("CheckSnap accepted a snapshot inside a user phase")
	}
	m.Clock.EndSegment()
	m.Clock.EndUserPhase()
	if got, want := m.Clock.Cycles(), snap.Clock.Cycles+100; got != want {
		t.Fatalf("clock after the phase = %d, want %d", got, want)
	}
	if _, err := m.CaptureSnap(); err != nil {
		t.Errorf("CaptureSnap between phases: %v", err)
	}
	if err := m.CheckSnap(snap); err != nil {
		t.Errorf("CheckSnap between phases: %v", err)
	}
}
