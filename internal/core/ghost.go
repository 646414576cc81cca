package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/vgcrypt"
)

// ErrBadGhostRange is returned for allocgm/freegm arguments outside the
// ghost partition or misaligned.
var errBadGhostRange = fmt.Errorf("core: ghost range must be page-aligned and inside the ghost partition")

func checkGhostRange(va hw.Virt, npages int) error {
	if npages <= 0 || va%hw.PageSize != 0 {
		return errBadGhostRange
	}
	end := va + hw.Virt(npages)*hw.PageSize
	if !hw.IsGhost(va) || end > hw.GhostTop || end < va {
		return errBadGhostRange
	}
	return nil
}

// AllocGhost implements allocgm (paper §3.2): the VM requests physical
// frames from the operating system, verifies the OS holds no mappings
// to them, retags them as ghost frames, zeroes them, and maps them into
// the application's ghost partition.
func (vm *VM) AllocGhost(t ThreadID, root hw.Frame, va hw.Virt, npages int) error {
	if err := checkGhostRange(va, npages); err != nil {
		return err
	}
	ts := vm.thread(t)
	ts.root = root
	for i := 0; i < npages; i++ {
		pva := va + hw.Virt(i)*hw.PageSize
		if _, exists := ts.ghost[pva]; exists {
			return fmt.Errorf("core: ghost page %#x already allocated", uint64(pva))
		}
		f, err := vm.getFrame()
		if err != nil {
			return err
		}
		vm.m.Clock.Charge(hw.TagMMUCheck, hw.CostMMUCheckPerPage)
		// Verify the OS removed every virtual-to-physical mapping for
		// the frame before handing it over.
		if vm.m.Mem.Refs(f) != 0 {
			vm.frames.PutFrame(f)
			return fmt.Errorf("%w: OS-provided frame %d still mapped %d times",
				ErrGhostMapping, f, vm.m.Mem.Refs(f))
		}
		switch vm.m.Mem.TypeOf(f) {
		case hw.FrameSVA, hw.FramePageTable, hw.FrameIO, hw.FrameCode, hw.FrameGhost:
			vm.frames.PutFrame(f)
			return fmt.Errorf("%w: OS-provided frame %d is %v",
				ErrGhostMapping, f, vm.m.Mem.TypeOf(f))
		}
		// The OS unmapped the frame, but on an SMP machine another
		// CPU's TLB may still translate to it from the frame's previous
		// life. Run the shootdown protocol before retyping: a stale
		// remote translation into a ghost frame would hand the OS the
		// application's secrets (the stale-remote-TLB attack).
		vm.m.ShootdownFrame(f)
		// Likewise a DMA allowance the OS set on the frame while it
		// held user data: no device may reach ghost memory (paper
		// §4.3.3).
		vm.m.IOMMU.Revoke(f)
		if err := vm.m.Mem.SetType(f, hw.FrameGhost); err != nil {
			return err
		}
		if err := vm.m.Mem.ZeroFrame(f); err != nil {
			return err
		}
		// Only the VM maps into the ghost partition; this bypasses the
		// kernel-facing policy check by construction.
		if err := vm.rawMap(root, pva, f, hw.PTEUser|hw.PTEWrite, vm.DeclarePTP); err != nil {
			return err
		}
		ts.ghost[pva] = f
	}
	return nil
}

// FreeGhost implements freegm: unmap, zero, and return the frames to
// the operating system. Zeroing before return is what keeps freed ghost
// contents unreadable.
func (vm *VM) FreeGhost(t ThreadID, root hw.Frame, va hw.Virt, npages int) error {
	if err := checkGhostRange(va, npages); err != nil {
		return err
	}
	ts, err := vm.lookup(t)
	if err != nil {
		return err
	}
	for i := 0; i < npages; i++ {
		pva := va + hw.Virt(i)*hw.PageSize
		f, ok := ts.ghost[pva]
		if !ok {
			return fmt.Errorf("core: freegm of unallocated ghost page %#x", uint64(pva))
		}
		if err := vm.releaseGhostPage(ts, root, pva, f); err != nil {
			return err
		}
	}
	return nil
}

// releaseGhostPage unmaps one ghost page for this thread; when the last
// sharer unmaps (fork shares ghost frames across an application's
// processes), the frame is scrubbed, retagged, and returned to the OS.
func (vm *VM) releaseGhostPage(ts *threadState, root hw.Frame, pva hw.Virt, f hw.Frame) error {
	if err := vm.rawUnmap(root, pva); err != nil {
		return err
	}
	delete(ts.ghost, pva)
	if vm.m.Mem.Refs(f) > 0 {
		// Another thread of the application still maps the frame.
		return nil
	}
	// Last mapping gone: flush every remote TLB before the frame is
	// scrubbed and returned to the OS, so no CPU retains a stale
	// window onto memory about to change owners.
	vm.m.ShootdownFrame(f)
	if err := vm.m.Mem.ZeroFrame(f); err != nil {
		return err
	}
	if err := vm.m.Mem.SetType(f, hw.FrameUserData); err != nil {
		return err
	}
	vm.frames.PutFrame(f)
	return nil
}

// GhostPages reports the thread's resident ghost page count.
func (vm *VM) GhostPages(t ThreadID) int {
	ts, ok := vm.threads[t]
	if !ok {
		return 0
	}
	return len(ts.ghost)
}

// InheritGhost maps the parent's ghost pages into the child's address
// space, sharing frames: "any ghost memory belonging to the current
// thread will also belong to the new thread" (paper §4.6.2).
func (vm *VM) InheritGhost(parent, child ThreadID, childRoot hw.Frame) error {
	pts, err := vm.lookup(parent)
	if err != nil {
		return err
	}
	cts := vm.thread(child)
	cts.root = childRoot
	for _, va := range sortedGhostVAs(pts.ghost) {
		f := pts.ghost[va]
		if err := vm.rawMap(childRoot, va, f, hw.PTEUser|hw.PTEWrite, vm.DeclarePTP); err != nil {
			return err
		}
		cts.ghost[va] = f
	}
	// The application key is process state shared across fork.
	if pts.appKey != nil {
		cts.appKey = append([]byte(nil), pts.appKey...)
		cts.binName = pts.binName
	}
	for a := range pts.permitted {
		cts.permitted[a] = true
	}
	return nil
}

// --- secure swap (paper §3.3) -----------------------------------------

// swapHeader binds a swap blob to its virtual address so the OS cannot
// swap page A's contents back in at page B.
func swapHeader(va hw.Virt) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(va) >> (8 * i))
	}
	return b
}

// SwapOutGhost encrypts and MACs one ghost page under the VM's swap key
// and releases the frame back to the OS. The VM records the blob digest
// so that swap-in rejects corruption *and replay of stale versions* (an
// extension beyond the prototype, which left swap unimplemented — see
// DESIGN.md §9).
func (vm *VM) SwapOutGhost(t ThreadID, va hw.Virt) ([]byte, error) {
	ts, err := vm.lookup(t)
	if err != nil {
		return nil, err
	}
	f, ok := ts.ghost[va]
	if !ok {
		return nil, fmt.Errorf("%w: %#x is not a resident ghost page", ErrSwap, uint64(va))
	}
	raw, err := vm.m.Mem.FrameBytes(f)
	if err != nil {
		return nil, err
	}
	plain := append(swapHeader(va), raw...)
	vm.m.Clock.Charge(hw.TagCrypt, hw.CostPageCrypt+hw.CostPageHash)
	vm.swapCounter++
	blob, err := vgcrypt.SealWithKeyAndCounter(vm.keys.swapKey(), vm.swapCounter, plain)
	if err != nil {
		return nil, err
	}
	if err := vm.releaseGhostPage(ts, ts.root, va, f); err != nil {
		return nil, err
	}
	ts.swapped[va] = vgcrypt.Checksum(blob)
	return blob, nil
}

// SwapInGhost verifies and decrypts a swap blob back into the thread's
// ghost partition at its original address.
func (vm *VM) SwapInGhost(t ThreadID, va hw.Virt, blob []byte) error {
	ts, err := vm.lookup(t)
	if err != nil {
		return err
	}
	want, ok := ts.swapped[va]
	if !ok {
		return fmt.Errorf("%w: %#x was not swapped out", ErrSwap, uint64(va))
	}
	if vgcrypt.Checksum(blob) != want {
		return fmt.Errorf("%w: blob does not match the page swapped out at %#x (corruption or replay)", ErrSwap, uint64(va))
	}
	vm.m.Clock.Charge(hw.TagCrypt, hw.CostPageCrypt+hw.CostPageHash)
	plain, err := vgcrypt.Open(vm.keys.swapKey(), blob)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSwap, err)
	}
	if len(plain) != 8+hw.PageSize {
		return fmt.Errorf("%w: bad payload size %d", ErrSwap, len(plain))
	}
	hdr := swapHeader(va)
	for i := range hdr {
		if plain[i] != hdr[i] {
			return fmt.Errorf("%w: blob was sealed for a different address", ErrSwap)
		}
	}
	if err := vm.AllocGhost(t, ts.root, va, 1); err != nil {
		return err
	}
	f := ts.ghost[va]
	dst, err := vm.m.Mem.FrameBytes(f)
	if err != nil {
		return err
	}
	copy(dst, plain[8:])
	delete(ts.swapped, va)
	return nil
}
