package kernel

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
)

// sortedPageVAs returns the mapped virtual addresses in ascending
// order. Paths that allocate or free physical frames per page must walk
// the page map in this order, not Go's randomized map order: the frame
// allocator hands out and reclaims frames in call order, so iteration
// order becomes physical frame assignment, and snapshot images are
// bit-for-bit comparisons of that state.
func sortedPageVAs(pages map[hw.Virt]hw.Frame) []hw.Virt {
	vas := make([]hw.Virt, 0, len(pages))
	for va := range pages {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	return vas
}

// This file is the kernel's virtual-memory subsystem: demand paging for
// heap/stack/anonymous/file mappings, the page-fault handler, fork-time
// address-space duplication, mmap/munmap, ghost swap-in, and teardown.

// findVMA locates the region containing va.
func (p *Proc) findVMA(va hw.Virt) *VMA {
	for _, v := range p.vmas {
		if v.contains(va) {
			return v
		}
	}
	return nil
}

// mapUserPage materializes one user page (allocating and zeroing a
// frame) and records it.
func (k *Kernel) mapUserPage(p *Proc, page hw.Virt) (hw.Frame, error) {
	f, err := k.M.Mem.AllocFrame(hw.FrameUserData)
	if err != nil {
		return 0, err
	}
	if err := k.M.Mem.ZeroFrame(f); err != nil {
		return 0, err
	}
	if err := k.HAL.MapPage(p.root, page, f, hw.PTEUser|hw.PTEWrite); err != nil {
		_ = k.M.Mem.FreeFrame(f)
		return 0, err
	}
	p.pages[page] = f
	return f, nil
}

// handleFault resolves a user page fault: demand-zero for heap, stack,
// and anonymous mmaps; file read-in for file mmaps; encrypted swap-in
// for ghost pages the OS previously swapped out. Unresolvable faults
// kill the process.
func (k *Kernel) handleFault(p *Proc, va hw.Virt, ic core.IContext) {
	k.HAL.KAccess(workPageFault)
	if !k.resolveFault(p, va) {
		k.forceExit(p, 128+SIGSEGV)
	}
}

// forceExit marks a process for termination. If it is the current
// process the unwind happens at its next user-mode check; otherwise the
// kill takes effect when it is next scheduled.
func (k *Kernel) forceExit(p *Proc, code int) {
	if p.state == procZombie || p.state == procDead {
		return
	}
	p.killed = true
	p.exitCode = code
}

// dupAddressSpace copies every materialized page of the parent into the
// child (eager copy; the paper's workloads measure fork cost, not COW
// behaviour).
func (k *Kernel) dupAddressSpace(parent, child *Proc) error {
	// Clone the VMA list.
	child.vmas = nil
	for _, v := range parent.vmas {
		cv := *v
		child.vmas = append(child.vmas, &cv)
	}
	child.allocPtr = parent.allocPtr
	child.mmapNext = parent.mmapNext
	child.ghostBrk = parent.ghostBrk
	for _, page := range sortedPageVAs(parent.pages) {
		pf := parent.pages[page]
		k.HAL.KAccess(workForkPerPage)
		cf, err := k.mapUserPage(child, page)
		if err != nil {
			return err
		}
		src, err := k.M.Mem.FrameBytes(pf)
		if err != nil {
			return err
		}
		dst, err := k.M.Mem.FrameBytes(cf)
		if err != nil {
			return err
		}
		copy(dst, src)
		k.M.Clock.ChargeBytes(hw.TagMemAccess, hw.PageSize, hw.CostBcopyPerByte)
	}
	return nil
}

// releaseUserMemory unmaps and frees every materialized user page and
// resets the VMA list (exit and exec both use this).
func (k *Kernel) releaseUserMemory(p *Proc) {
	for _, page := range sortedPageVAs(p.pages) {
		f := p.pages[page]
		if err := k.HAL.UnmapPage(p.root, page); err != nil {
			panic(fmt.Sprintf("kernel: unmap %#x: %v", uint64(page), err))
		}
		if err := k.M.Mem.FreeFrame(f); err != nil {
			panic(fmt.Sprintf("kernel: free frame %d: %v", f, err))
		}
	}
	p.pages = make(map[hw.Virt]hw.Frame)
	p.vmas = nil
	p.heapPgs = 0
}

// freePageTables releases the page-table tree of an address space after
// all leaf mappings are gone.
func (k *Kernel) freePageTables(root hw.Frame) {
	k.freePTLevel(root, 3)
}

func (k *Kernel) freePTLevel(table hw.Frame, level int) {
	if level > 0 {
		// A table frame outside RAM has no entries to follow.
		_ = k.M.MMU.VisitPresentPTEs(table, func(e hw.PTE) {
			k.freePTLevel(e.Frame(), level-1)
		})
	}
	// Level-0 entries point at data frames (freed by
	// releaseUserMemory), so only the table frames themselves are
	// freed here, at every level.
	_ = k.M.Mem.SetType(table, hw.FrameUserData)
	_ = k.M.Mem.FreeFrame(table)
}

// growHeap extends the process heap region (sbrk).
func (k *Kernel) growHeap(p *Proc, npages int) uint64 {
	k.HAL.KAccess(workMmap / 4)
	p.heapPgs += npages
	return uint64(UserHeapBase) + uint64(p.heapPgs)*hw.PageSize
}

// mmapRegion creates a new mapping and returns its base address.
// fd < 0 means anonymous.
func (k *Kernel) mmapRegion(p *Proc, npages int, fd int, off int64) (hw.Virt, uint64) {
	k.HAL.KAccess(workMmap)
	k.HAL.OnVMRegion(npages)
	if npages <= 0 {
		return 0, errno(EINVAL)
	}
	base := p.mmapNext
	p.mmapNext += hw.Virt(npages+1) * hw.PageSize // guard gap
	v := &VMA{Base: base, NPages: npages, Kind: vmaAnon}
	if fd >= 0 {
		fdesc, e := p.fd(fd)
		if e != 0 {
			return 0, errno(e)
		}
		ff, ok := fdesc.Ops.(*fsFile)
		if !ok {
			return 0, errno(EINVAL)
		}
		v.Kind = vmaFile
		v.ino = ff.ino
		v.fileOff = off
	}
	p.vmas = append(p.vmas, v)
	return base, 0
}

// munmapRegion removes a mapping, freeing its materialized pages.
func (k *Kernel) munmapRegion(p *Proc, base hw.Virt, npages int) uint64 {
	k.HAL.KAccess(workMunmap)
	k.HAL.OnVMRegion(npages)
	for i, v := range p.vmas {
		if v.Base == base && v.NPages == npages {
			for j := 0; j < npages; j++ {
				page := base + hw.Virt(j)*hw.PageSize
				if f, ok := p.pages[page]; ok {
					if err := k.HAL.UnmapPage(p.root, page); err != nil {
						return errno(EFAULT)
					}
					_ = k.M.Mem.FreeFrame(f)
					delete(p.pages, page)
				}
			}
			p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
			return 0
		}
	}
	return errno(EINVAL)
}

// resolveFault attempts to materialize the page backing va (demand
// paging). It returns false when the address is not part of any region.
func (k *Kernel) resolveFault(p *Proc, va hw.Virt) bool {
	page := hw.PageOf(va)
	if hw.IsGhost(va) {
		if blobs, ok := k.swappedGhost[p.PID]; ok {
			if blob, ok := blobs[page]; ok {
				if err := k.HAL.SwapInGhost(p.tid, page, blob); err == nil {
					delete(blobs, page)
					return true
				}
			}
		}
		return false
	}
	v := p.findVMA(va)
	if v == nil {
		return false
	}
	if _, present := p.pages[page]; present {
		return true
	}
	f, err := k.mapUserPage(p, page)
	if err != nil {
		return false
	}
	if v.Kind == vmaFile {
		off := v.fileOff + int64(page-v.Base)
		buf := make([]byte, hw.PageSize)
		n, rerr := k.FS.ReadAt(v.ino, buf, off)
		if rerr != nil && n == 0 {
			return false
		}
		dst, derr := k.M.Mem.FrameBytes(f)
		if derr != nil {
			return false
		}
		copy(dst, buf[:n])
		k.M.Clock.ChargeBytes(hw.TagMemAccess, n, hw.CostBcopyPerByte)
	}
	return true
}

// copyinKeep is the most copyin scratch a process keeps between calls;
// a larger copy gets a buffer of its own for that call only.
const copyinKeep = 64 << 10

// copyin is the kernel's fault-tolerant copy from user space: like the
// real copyin, it services demand-paging faults on the user buffer.
// The bytes land in p's copyin scratch and stay valid until p's next
// copyin. The scratch is per process, not per kernel, because a write
// that blocks (a full pipe, a closed send window) still holds its
// bytes while other processes enter the kernel.
func (k *Kernel) copyin(p *Proc, va hw.Virt, n int) ([]byte, error) {
	b := p.copyinScratch(n)
	for tries := 0; ; tries++ {
		err := k.HAL.Copyin(p.root, va, b)
		if err == nil {
			return b, nil
		}
		var f *hw.Fault
		if !errorsAs(err, &f) || tries > n/hw.PageSize+2 || !k.resolveFault(p, f.VA) {
			return nil, err
		}
	}
}

// copyinScratch returns an n-byte buffer for copyin: p's scratch,
// grown geometrically up to copyinKeep, or a one-off buffer beyond.
func (p *Proc) copyinScratch(n int) []byte {
	if n > copyinKeep {
		return make([]byte, n)
	}
	if cap(p.inBuf) < n {
		p.inBuf = make([]byte, min(max(n, 2*cap(p.inBuf)), copyinKeep))
	}
	return p.inBuf[:n]
}

// copyout is the fault-tolerant copy to user space.
func (k *Kernel) copyout(p *Proc, va hw.Virt, b []byte) error {
	for tries := 0; ; tries++ {
		err := k.HAL.Copyout(p.root, va, b)
		if err == nil {
			return nil
		}
		var f *hw.Fault
		if !errorsAs(err, &f) || tries > len(b)/hw.PageSize+2 || !k.resolveFault(p, f.VA) {
			return err
		}
	}
}

func errorsAs(err error, target **hw.Fault) bool {
	for err != nil {
		if f, ok := err.(*hw.Fault); ok {
			*target = f
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
