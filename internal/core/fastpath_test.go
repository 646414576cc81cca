package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hw"
)

// mapUser allocates a user frame and maps it at va with the given flags.
func mapUser(t *testing.T, h HAL, m *hw.Machine, root hw.Frame, va hw.Virt, flags uint64) hw.Frame {
	t.Helper()
	f, err := m.Mem.AllocFrame(hw.FrameUserData)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.MapPage(root, va, f, flags); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestKLoadObservesUnmap(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	va := hw.Virt(0x400000)
	f := mapUser(t, vm, m, root, va, hw.PTEUser|hw.PTEWrite)
	b, _ := m.Mem.FrameBytes(f)
	b[0] = 0x5a

	if v, err := vm.KLoad(root, va, 1); err != nil || v != 0x5a {
		t.Fatalf("KLoad before unmap: v=%#x err=%v", v, err)
	}
	if err := vm.UnmapPage(root, va); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.KLoad(root, va, 1); err == nil {
		t.Fatal("KLoad after UnmapPage succeeded: stale cached translation")
	}
}

func TestKLoadObservesRemap(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	va := hw.Virt(0x400000)
	f1 := mapUser(t, vm, m, root, va, hw.PTEUser|hw.PTEWrite)
	b1, _ := m.Mem.FrameBytes(f1)
	b1[0] = 0x11
	if v, err := vm.KLoad(root, va, 1); err != nil || v != 0x11 {
		t.Fatalf("KLoad of first mapping: v=%#x err=%v", v, err)
	}

	// Remap the same page to a different frame (no unmap in between:
	// rawMap replaces the live leaf).
	f2, err := m.Mem.AllocFrame(hw.FrameUserData)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := m.Mem.FrameBytes(f2)
	b2[0] = 0x22
	if err := vm.MapPage(root, va, f2, hw.PTEUser|hw.PTEWrite); err != nil {
		t.Fatal(err)
	}
	if v, err := vm.KLoad(root, va, 1); err != nil || v != 0x22 {
		t.Fatalf("KLoad after remap: v=%#x err=%v, want 0x22", v, err)
	}
}

func TestKStoreObservesPermissionDowngrade(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	va := hw.Virt(0x400000)
	f := mapUser(t, vm, m, root, va, hw.PTEUser|hw.PTEWrite)
	if err := vm.KStore(root, va, 1, 0xaa); err != nil {
		t.Fatalf("KStore to writable page: %v", err)
	}
	// Downgrade to read-only by remapping the same frame.
	if err := vm.MapPage(root, va, f, hw.PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := vm.KStore(root, va, 1, 0xbb); err == nil {
		t.Fatal("KStore after permission downgrade succeeded")
	}
	if v, err := vm.KLoad(root, va, 1); err != nil || v != 0xaa {
		t.Fatalf("KLoad after downgrade: v=%#x err=%v, want 0xaa", v, err)
	}
}

func TestCopyinObservesRemap(t *testing.T) {
	h, m := newNative(t)
	root, _ := h.NewAddressSpace()
	va := hw.Virt(0x400000)
	f1 := mapUser(t, h, m, root, va, hw.PTEUser|hw.PTEWrite)
	b1, _ := m.Mem.FrameBytes(f1)
	copy(b1, []byte("first"))
	got := make([]byte, 5)
	err := h.Copyin(root, va, got)
	if err != nil || !bytes.Equal(got, []byte("first")) {
		t.Fatalf("Copyin of first mapping: %q err=%v", got, err)
	}

	if err := h.UnmapPage(root, va); err != nil {
		t.Fatal(err)
	}
	if err := h.Copyin(root, va, got); err == nil {
		t.Fatal("Copyin after unmap succeeded: stale cached translation")
	}

	f2, err := m.Mem.AllocFrame(hw.FrameUserData)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := m.Mem.FrameBytes(f2)
	copy(b2, []byte("other"))
	if err := h.MapPage(root, va, f2, hw.PTEUser|hw.PTEWrite); err != nil {
		t.Fatal(err)
	}
	err = h.Copyin(root, va, got)
	if err != nil || !bytes.Equal(got, []byte("other")) {
		t.Fatalf("Copyin after remap: %q err=%v, want %q", got, err, "other")
	}
}

// TestStaleTranslationGhostFrameRegression models the attack the
// invalidation hooks exist to stop (cf. internal/attack): the kernel
// touches a user page (priming any translation cache), the page is
// unmapped and its frame freed, and the frame is then reallocated as a
// *ghost* frame holding an application secret. The memory allocator's
// LIFO free list makes the reuse deterministic. A walk cache without
// invalidation would satisfy the kernel's next load from the stale
// (root, page) entry and leak the ghost frame's contents; with the
// shipped hooks the load must fault.
func TestStaleTranslationGhostFrameRegression(t *testing.T) {
	vm, m := newVM(t)
	root, _ := vm.NewAddressSpace()
	if err := vm.LoadAddressSpace(root); err != nil {
		t.Fatal(err)
	}
	va := hw.Virt(0x400000)
	f := mapUser(t, vm, m, root, va, hw.PTEUser|hw.PTEWrite)

	// Prime the translation path.
	if _, err := vm.KLoad(root, va, 8); err != nil {
		t.Fatalf("priming KLoad: %v", err)
	}

	// Tear down the mapping and free the frame; the LIFO free list
	// guarantees the very next allocation returns it.
	if err := vm.UnmapPage(root, va); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.FreeFrame(f); err != nil {
		t.Fatal(err)
	}

	// The application allocates ghost memory: the freed frame comes
	// back as a FrameGhost frame holding a secret.
	if err := vm.AllocGhost(1, root, hw.GhostBase, 1); err != nil {
		t.Fatal(err)
	}
	gf := vm.threads[1].ghost[hw.GhostBase]
	if gf != f {
		t.Fatalf("test setup: ghost frame %d, want recycled frame %d", gf, f)
	}
	secret := []byte{0x13, 0x37, 0xc0, 0xde, 0x13, 0x37, 0xc0, 0xde}
	gb, _ := m.Mem.FrameBytes(gf)
	copy(gb, secret)

	// The hostile kernel retries its load of the unmapped user page. A
	// stale cached translation would hand it the ghost frame.
	v, err := vm.KLoad(root, va, 8)
	if err == nil {
		t.Fatalf("KLoad of unmapped page succeeded (v=%#x), want fault", v)
	}
	var fault *hw.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("KLoad error = %v, want *hw.Fault", err)
	}
}

func TestCopyinCopyoutRoundTripLarge(t *testing.T) {
	h, m := newNative(t)
	root, _ := h.NewAddressSpace()
	// Three pages so copies straddle page boundaries.
	base := hw.Virt(0x400000)
	for i := 0; i < 3; i++ {
		mapUser(t, h, m, root, base+hw.Virt(i*hw.PageSize), hw.PTEUser|hw.PTEWrite)
	}
	data := make([]byte, 2*hw.PageSize+777)
	for i := range data {
		data[i] = byte(i * 7)
	}
	va := base + 123 // unaligned start
	if err := h.Copyout(root, va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := h.Copyin(root, va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Copyin/Copyout round trip mismatch")
	}
}
