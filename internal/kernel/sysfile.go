package kernel

import (
	"repro/internal/core"
	"repro/internal/hw"
)

// Open flags.
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OAppend = 0x8
	OCreat  = 0x200
	OTrunc  = 0x400
)

// fsFile adapts an FS inode to FileOps.
type fsFile struct {
	fs  *FS
	ino uint32
}

func (f *fsFile) Read(p *Proc, n int, off int64) ([]byte, error) {
	return f.fs.read(f.ino, n, off)
}

func (f *fsFile) WriteAt(p *Proc, b []byte, off int64) (int, error) {
	return f.fs.WriteAt(f.ino, b, off)
}

func (f *fsFile) Size() int64 {
	st, err := f.fs.Stat(f.ino)
	if err != nil {
		return 0
	}
	return st.Size
}

func (f *fsFile) Ready() bool           { return true }
func (f *fsFile) Close(k *Kernel) error { return nil }

// copyinPath fetches a NUL-terminated path string from user memory via
// the instrumented kernel accessors, 32 bytes per copyin. The bytes
// collect in a stack buffer, so the returned string is the call's only
// host allocation.
func copyinPath(k *Kernel, p *Proc, va uint64) (string, uint64) {
	const maxPath = 512
	var out [maxPath]byte
	for n := 0; n < maxPath; {
		chunk, err := k.copyin(p, hw.Virt(va)+hw.Virt(n), 32)
		if err != nil {
			return "", errno(EFAULT)
		}
		for _, c := range chunk {
			if c == 0 {
				return string(out[:n]), 0
			}
			out[n] = c
			n++
		}
	}
	return "", errno(EINVAL)
}

// sysOpen implements open(path, flags).
func sysOpen(k *Kernel, p *Proc, ic core.IContext) uint64 {
	path, e := copyinPath(k, p, ic.Arg(0))
	if e != 0 {
		return e
	}
	flags := ic.Arg(1)
	k.HAL.KAccess(workOpenFile)

	if dev := k.openDevice(path); dev != nil {
		fd, e := p.allocFD(dev, false)
		if e != 0 {
			return errno(e)
		}
		p.fds[fd].setAccess(flags)
		return uint64(fd)
	}

	ino, err := k.FS.Lookup(path)
	if err != nil {
		if flags&OCreat == 0 {
			return errno(errnoOf(err))
		}
		ino, err = k.FS.Create(path)
		if err != nil {
			return errno(errnoOf(err))
		}
	} else if flags&OTrunc != 0 {
		in, ierr := k.FS.readInode(ino)
		if ierr != nil {
			return errno(EFAULT)
		}
		if in.Mode == modeDir {
			return errno(EISDIR)
		}
		if err := k.FS.truncate(ino, &in); err != nil {
			return errno(errnoOf(err))
		}
	}
	st, err := k.FS.Stat(ino)
	if err != nil {
		return errno(errnoOf(err))
	}
	if st.IsDir && flags&(OWrOnly|ORdWr) != 0 {
		return errno(EISDIR)
	}
	ff := &fsFile{fs: k.FS, ino: ino}
	fd, e := p.allocFD(ff, true)
	if e != 0 {
		return errno(e)
	}
	d := p.fds[fd]
	d.setAccess(flags)
	if flags&OAppend != 0 {
		d.Off = st.Size
	}
	return uint64(fd)
}

// setAccess limits d to the directions open's access mode grants:
// O_RDONLY reads, O_WRONLY writes, O_RDWR both, and the mode with both
// bits set neither (as on Linux).
func (d *FileDesc) setAccess(flags uint64) {
	acc := flags & (OWrOnly | ORdWr)
	d.Readable = acc == ORdOnly || acc == ORdWr
	d.Writable = acc == OWrOnly || acc == ORdWr
}

// sysClose implements close(fd).
func sysClose(k *Kernel, p *Proc, ic core.IContext) uint64 {
	k.HAL.KAccess(workCloseFile)
	if e := p.closeFD(k, int(ic.Arg(0))); e != 0 {
		return errno(e)
	}
	return 0
}

// sysRead implements read(fd, buf, n): the file object returns a view
// of the bytes it produced and the kernel copies them out through the
// instrumented accessors, so a buffer pointer aimed at ghost memory
// lands harmlessly in kernel space under Virtual Ghost. The view is
// sized by the data, never by n alone. A descriptor not open for
// reading gets EBADF before anything is charged.
func sysRead(k *Kernel, p *Proc, ic core.IContext) uint64 {
	d, e := p.fd(int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	if !d.Readable {
		return errno(EBADF)
	}
	n := int(ic.Arg(2))
	if n < 0 {
		return errno(EINVAL)
	}
	k.HAL.KAccess(workReadWriteBase)
	k.HAL.OnIndirectCall(1) // fo_read through the file-ops table
	data, err := d.Ops.Read(p, n, d.Off)
	if err != nil {
		return errno(errnoOf(err))
	}
	if len(data) > 0 {
		if err := k.copyout(p, hw.Virt(ic.Arg(1)), data); err != nil {
			return errno(EFAULT)
		}
	}
	if d.Seekable {
		d.Off += int64(len(data))
	}
	return uint64(len(data))
}

// readScratch returns the kernel's read scratch resized to n bytes,
// growing it geometrically. Callers pass a length already bounded by
// the data available.
func (k *Kernel) readScratch(n int) []byte {
	if cap(k.readBuf) < n {
		k.readBuf = make([]byte, max(n, 2*cap(k.readBuf)))
	}
	return k.readBuf[:n]
}

// sysWrite implements write(fd, buf, n). A descriptor not open for
// writing gets EBADF before anything is charged.
func sysWrite(k *Kernel, p *Proc, ic core.IContext) uint64 {
	d, e := p.fd(int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	if !d.Writable {
		return errno(EBADF)
	}
	n := int(ic.Arg(2))
	if n < 0 {
		return errno(EINVAL)
	}
	k.HAL.KAccess(workReadWriteBase)
	buf, err := k.copyin(p, hw.Virt(ic.Arg(1)), n)
	if err != nil {
		return errno(EFAULT)
	}
	k.HAL.OnIndirectCall(1) // fo_write
	wrote, werr := d.Ops.WriteAt(p, buf, d.Off)
	if werr != nil {
		if errnoOf(werr) == EPIPE {
			p.sigPending = append(p.sigPending, SIGPIPE)
		}
		return errno(errnoOf(werr))
	}
	if d.Seekable {
		d.Off += int64(wrote)
	}
	return uint64(wrote)
}

// sysLseek implements lseek(fd, off, whence).
func sysLseek(k *Kernel, p *Proc, ic core.IContext) uint64 {
	d, e := p.fd(int(ic.Arg(0)))
	if e != 0 {
		return errno(e)
	}
	if !d.Seekable {
		return errno(ESPIPE)
	}
	off := int64(ic.Arg(1))
	switch ic.Arg(2) {
	case 0: // SEEK_SET
		d.Off = off
	case 1: // SEEK_CUR
		d.Off += off
	case 2: // SEEK_END
		d.Off = d.Ops.Size() + off
	default:
		return errno(EINVAL)
	}
	if d.Off < 0 {
		d.Off = 0
	}
	return uint64(d.Off)
}

// sysUnlink implements unlink(path).
func sysUnlink(k *Kernel, p *Proc, ic core.IContext) uint64 {
	path, e := copyinPath(k, p, ic.Arg(0))
	if e != 0 {
		return e
	}
	if err := k.FS.Unlink(path, false); err != nil {
		return errno(errnoOf(err))
	}
	return 0
}

// sysMkdir implements mkdir(path).
func sysMkdir(k *Kernel, p *Proc, ic core.IContext) uint64 {
	path, e := copyinPath(k, p, ic.Arg(0))
	if e != 0 {
		return e
	}
	if _, err := k.FS.Mkdir(path); err != nil {
		return errno(errnoOf(err))
	}
	return 0
}

// sysRmdir implements rmdir(path).
func sysRmdir(k *Kernel, p *Proc, ic core.IContext) uint64 {
	path, e := copyinPath(k, p, ic.Arg(0))
	if e != 0 {
		return e
	}
	if err := k.FS.Unlink(path, true); err != nil {
		return errno(errnoOf(err))
	}
	return 0
}

// sysStat implements stat(path, statbuf): writes {size, isdir} as two
// u64s.
func sysStat(k *Kernel, p *Proc, ic core.IContext) uint64 {
	path, e := copyinPath(k, p, ic.Arg(0))
	if e != 0 {
		return e
	}
	ino, err := k.FS.Lookup(path)
	if err != nil {
		return errno(errnoOf(err))
	}
	st, err := k.FS.Stat(ino)
	if err != nil {
		return errno(errnoOf(err))
	}
	// The result goes out from the kernel's read scratch: a fresh
	// 16-byte buffer would escape into the HAL's copyout.
	out := k.readScratch(16)
	putU64(out[0:], uint64(st.Size))
	isDir := uint64(0)
	if st.IsDir {
		isDir = 1
	}
	putU64(out[8:], isDir)
	if err := k.copyout(p, hw.Virt(ic.Arg(1)), out); err != nil {
		return errno(EFAULT)
	}
	return 0
}

// sysFsync flushes the buffer cache.
func sysFsync(k *Kernel, p *Proc, ic core.IContext) uint64 {
	if err := k.FS.Sync(); err != nil {
		return errno(EFAULT)
	}
	return 0
}

// sysPipe implements pipe(fds[2]).
func sysPipe(k *Kernel, p *Proc, ic core.IContext) uint64 {
	k.HAL.KAccess(workPipe)
	r, w := NewPipe()
	rfd, e := p.allocFD(r, false)
	if e != 0 {
		return errno(e)
	}
	wfd, e := p.allocFD(w, false)
	if e != 0 {
		_ = p.closeFD(k, rfd)
		return errno(e)
	}
	out := make([]byte, 8)
	putU32(out[0:], uint32(rfd))
	putU32(out[4:], uint32(wfd))
	if err := k.copyout(p, hw.Virt(ic.Arg(0)), out); err != nil {
		return errno(EFAULT)
	}
	return 0
}

// sysSelect implements a simplified select: arg0 points at an array of
// arg1 fd numbers (u32); returns a bitmask (up to 64 fds) of ready
// descriptors, blocking until at least one is ready when arg2 != 0.
func sysSelect(k *Kernel, p *Proc, ic core.IContext) uint64 {
	nfds := int(ic.Arg(1))
	if nfds < 0 || nfds > 64 {
		return errno(EINVAL)
	}
	k.HAL.KAccess(workSelectBase + workSelectPerFD*nfds)
	raw, err := k.copyin(p, hw.Virt(ic.Arg(0)), nfds*4)
	if err != nil {
		return errno(EFAULT)
	}
	fds := make([]int, nfds)
	for i := range fds {
		fds[i] = int(getU32(raw[4*i:]))
	}
	scan := func() uint64 {
		var mask uint64
		for i, fd := range fds {
			d, e := p.fd(fd)
			if e != 0 {
				continue
			}
			k.HAL.OnIndirectCall(1) // fo_poll
			if d.Ops.Ready() {
				mask |= 1 << uint(i)
			}
		}
		return mask
	}
	mask := scan()
	if mask == 0 && ic.Arg(2) != 0 {
		p.block(func() bool { return scan() != 0 })
		mask = scan()
	}
	return mask
}

// sysMmap implements mmap(len, fd, off) (addr is kernel-chosen, prot is
// RW): returns the mapped base address. fd == ^0 means anonymous.
func sysMmap(k *Kernel, p *Proc, ic core.IContext) uint64 {
	length := int(ic.Arg(0))
	npages := (length + hw.PageSize - 1) / hw.PageSize
	fd := -1
	if ic.Arg(1) != ^uint64(0) {
		fd = int(ic.Arg(1))
	}
	base, e := k.mmapRegion(p, npages, fd, int64(ic.Arg(2)))
	if e != 0 {
		return e
	}
	return uint64(base)
}

// sysMunmap implements munmap(addr, len).
func sysMunmap(k *Kernel, p *Proc, ic core.IContext) uint64 {
	length := int(ic.Arg(1))
	npages := (length + hw.PageSize - 1) / hw.PageSize
	if e := k.munmapRegion(p, hw.Virt(ic.Arg(0)), npages); e != 0 {
		return e
	}
	return 0
}

// sysSbrk grows the heap by arg0 pages and returns the new break.
func sysSbrk(k *Kernel, p *Proc, ic core.IContext) uint64 {
	return k.growHeap(p, int(ic.Arg(0)))
}

// sysSwapOut is the experiment hook that makes the OS swap out one of
// the current process's ghost pages (arg0). The encrypted blob the VM
// returns is stored in OS memory (where a hostile OS can stare at it
// all it likes).
func sysSwapOut(k *Kernel, p *Proc, ic core.IContext) uint64 {
	va := hw.PageOf(hw.Virt(ic.Arg(0)))
	blob, err := k.HAL.SwapOutGhost(p.tid, va)
	if err != nil {
		return errno(EINVAL)
	}
	if k.swappedGhost[p.PID] == nil {
		k.swappedGhost[p.PID] = make(map[hw.Virt][]byte)
	}
	k.swappedGhost[p.PID][va] = blob
	return 0
}

// sysRandom returns OS-provided randomness — the attackable kind.
func sysRandom(k *Kernel, p *Proc, ic core.IContext) uint64 {
	if k.devRandomHook != nil {
		return k.devRandomHook()
	}
	return k.M.RNG.Next()
}

// sysYield is sched_yield: the process gives up the CPU mid-trap (the
// kernel path any blocking primitive takes).
func sysYield(k *Kernel, p *Proc, ic core.IContext) uint64 {
	p.yield()
	return 0
}
