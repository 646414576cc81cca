package kernel

import (
	"repro/internal/core"
	"repro/internal/hw"
)

// sysGetpid is the null-syscall of the microbenchmarks.
func sysGetpid(k *Kernel, p *Proc, ic core.IContext) uint64 {
	return uint64(p.PID)
}

// sysExit implements exit(code).
func sysExit(k *Kernel, p *Proc, ic core.IContext) uint64 {
	p.sysExitInternal(int(ic.Arg(0)))
	return 0
}

// sysExitInternal performs kernel-side process teardown and zombifies
// the process. It runs in process context; the caller unwinds the user
// stack afterwards.
func (p *Proc) sysExitInternal(code int) {
	if p.state == procZombie || p.state == procDead {
		return
	}
	k := p.k
	k.HAL.KAccess(workExit)
	p.exitCode = code
	p.closeAllFDs(k)
	k.releaseUserMemory(p)
	// The HAL scrubs and returns ghost pages and drops thread state.
	k.HAL.EndThread(p.tid)
	k.freePageTables(p.root)
	// Orphan children are reparented to nobody and reaped immediately
	// when they die (no init in this world).
	for _, c := range p.children {
		c.parent = nil
	}
	delete(k.swappedGhost, p.PID)
	p.state = procZombie
	if p.parent == nil {
		// Nothing will wait for us; become fully dead.
		p.state = procDead
		k.schedRemove(p)
		delete(k.procs, p.PID)
	}
}

// sysFork implements fork(): the child is a full copy of the parent's
// user memory image, file table, and (via the HAL) interrupt context
// and ghost mappings.
func sysFork(k *Kernel, p *Proc, ic core.IContext) uint64 {
	if p.pendingChildMain == nil {
		return errno(EINVAL)
	}
	k.HAL.KAccess(workFork)
	k.stats.ForksCreated++
	child, err := k.newProc(p.Name+"+", p, p.pendingChildMain)
	if err != nil {
		return errno(ENOMEM)
	}
	// Duplicate the traditional memory image.
	if err := k.dupAddressSpace(p, child); err != nil {
		k.forceExit(child, 128+SIGKILL)
		return errno(ENOMEM)
	}
	// Share file descriptors (refcounted open-file entries).
	child.fds = make([]*FileDesc, len(p.fds))
	for i, d := range p.fds {
		if d != nil {
			d.Refs++
			child.fds[i] = d
		}
	}
	child.fdHint = p.fdHint
	// Clone signal dispositions and the user-side code registry (same
	// image).
	for sig, h := range p.sigHandlers {
		child.sigHandlers[sig] = h
	}
	for a, f := range p.handlerFns {
		child.handlerFns[a] = f
	}
	child.nextCode = p.nextCode
	// sva.newstate: clone the interrupt context inside the VM.
	cic, err := k.HAL.NewState(ic, child.tid)
	if err != nil {
		return errno(ENOMEM)
	}
	cic.SetRet(0) // the child's fork() returns 0
	// Ghost memory is shared with the new thread (paper §4.6.2).
	if err := k.HAL.InheritGhost(p.tid, child.tid, child.root); err != nil {
		return errno(ENOMEM)
	}
	child.start()
	return uint64(child.PID)
}

// sysWait4 implements wait4(status*): blocks for any child zombie,
// writes its exit code, reaps it, and returns its pid. With several
// zombies it reaps the lowest pid, so the order a parent gets its
// children back does not depend on map iteration.
func sysWait4(k *Kernel, p *Proc, ic core.IContext) uint64 {
	if len(p.children) == 0 {
		return errno(EINVAL)
	}
	var zombie *Proc
	p.block(func() bool {
		for _, c := range p.children {
			if c.state == procZombie && (zombie == nil || c.PID < zombie.PID) {
				zombie = c
			}
		}
		return zombie != nil
	})
	k.HAL.KAccess(workWait)
	out := make([]byte, 8)
	putU64(out, uint64(zombie.exitCode))
	if ic.Arg(0) != 0 {
		if err := k.copyout(p, hw.Virt(ic.Arg(0)), out); err != nil {
			return errno(EFAULT)
		}
	}
	zombie.state = procDead
	k.schedRemove(zombie)
	delete(p.children, zombie.PID)
	delete(k.procs, zombie.PID)
	return uint64(zombie.PID)
}

// sysExecve implements execve(path): validates the installed binary
// through the HAL (Virtual Ghost refuses tampered images), releases the
// old user image including its ghost memory, and reinitializes the
// interrupt context for the new entry point.
func sysExecve(k *Kernel, p *Proc, ic core.IContext) uint64 {
	path, e := copyinPath(k, p, ic.Arg(0))
	if e != 0 {
		return e
	}
	prog, ok := k.programs[path]
	if !ok {
		return errno(ENOENT)
	}
	k.HAL.KAccess(workExec)
	// Binary validation: under Virtual Ghost a bad installer signature
	// or key section refuses to prepare the image (paper §4.5).
	if err := k.HAL.LoadBinary(p.tid, prog.Bin); err != nil {
		return errno(EPERM)
	}
	// Tear down the old image.
	k.releaseUserMemory(p)
	p.vmas = append(p.vmas,
		&VMA{Base: UserHeapBase, NPages: 1 << 16, Kind: vmaHeap},
		&VMA{Base: UserStackTop - stackPages*hw.PageSize, NPages: stackPages, Kind: vmaStack},
	)
	p.allocPtr = UserHeapBase
	p.mmapNext = UserMmapBase
	p.heapPgs = 0
	p.sigHandlers = make(map[int]uint64)
	p.handlerFns = make(map[uint64]HandlerFunc)
	p.nextCode = uint64(UserText) + 0x1000
	p.ghostBrk = hw.GhostBase
	// sva.reinit.icontext: new PC/SP, user privilege, old ghost memory
	// unmapped by the VM.
	if err := k.HAL.ReinitIContext(ic, uint64(UserText), uint64(UserStackTop)); err != nil {
		return errno(EPERM)
	}
	p.Name = path
	p.execNext = prog.Main
	return 0
}
