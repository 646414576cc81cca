package kernel

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

func TestDevices(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	var nullRead, randRead uint64
	var randBytes []byte
	_, err := k.Spawn("dev", func(p *Proc) {
		// /dev/null: writes sink, reads EOF.
		nul := p.Syscall(SysOpen, p.PushString("/dev/null"), ORdWr)
		buf := p.Alloc(64)
		p.Write(buf, []byte("discard"))
		if n := p.Syscall(SysWrite, nul, buf, 7); n != 7 {
			t.Errorf("null write = %d", int64(n))
		}
		nullRead = p.Syscall(SysRead, nul, buf, 16)
		p.Syscall(SysClose, nul)
		// /dev/random: reads fill.
		rnd := p.Syscall(SysOpen, p.PushString("/dev/random"), ORdOnly)
		randRead = p.Syscall(SysRead, rnd, buf, 16)
		randBytes = p.Read(buf, 16)
		// /dev/console: writes reach the machine console.
		con := p.Syscall(SysOpen, p.PushString("/dev/console"), OWrOnly)
		msg := p.PushString("dmesg line")
		p.Syscall(SysWrite, con, msg, 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if nullRead != 0 {
		t.Errorf("null read = %d", nullRead)
	}
	if randRead != 16 || bytes.Equal(randBytes, make([]byte, 16)) {
		t.Errorf("random read = %d % x", randRead, randBytes)
	}
	if !k.Console().Contains("dmesg line") {
		t.Errorf("console write lost")
	}
}

func TestLseekWhence(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	k.WriteKernelFile("/seek.txt", []byte("0123456789"))
	var atSet, atCur, atEnd uint64
	_, err := k.Spawn("seeker", func(p *Proc) {
		fd := p.Syscall(SysOpen, p.PushString("/seek.txt"), ORdOnly)
		atSet = p.Syscall(SysLseek, fd, 4, 0)          // SEEK_SET
		atCur = p.Syscall(SysLseek, fd, 3, 1)          // SEEK_CUR
		atEnd = p.Syscall(SysLseek, fd, ^uint64(1), 2) // SEEK_END -2
		// And a read picks up at that offset.
		buf := p.Alloc(8)
		n := p.Syscall(SysRead, fd, buf, 8)
		if got := string(p.Read(buf, int(n))); got != "89" {
			t.Errorf("read after seek = %q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if atSet != 4 || atCur != 7 || atEnd != 8 {
		t.Errorf("seeks = %d %d %d", atSet, atCur, atEnd)
	}
}

func TestSyscallErrorPaths(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	if !k.WriteKernelFile("/afile", []byte("file bytes")) {
		t.Fatal("WriteKernelFile /afile failed")
	}
	_, err := k.Spawn("errs", func(p *Proc) {
		check := func(name string, ret uint64, want uint64) {
			e, bad := IsErr(ret)
			if !bad || e != want {
				t.Errorf("%s: ret=%d want errno %d", name, int64(ret), want)
			}
		}
		buf := p.Alloc(16)
		check("read bad fd", p.Syscall(SysRead, 99, buf, 8), EBADF)
		check("write bad fd", p.Syscall(SysWrite, 99, buf, 8), EBADF)
		check("close bad fd", p.Syscall(SysClose, 99), EBADF)
		check("open missing", p.Syscall(SysOpen, p.PushString("/missing"), ORdOnly), ENOENT)
		check("unlink missing", p.Syscall(SysUnlink, p.PushString("/missing")), ENOENT)
		check("exec missing", p.Syscall(SysExecve, p.PushString("/bin/missing")), ENOENT)
		check("kill missing", p.Syscall(SysKill, 999, SIGUSR1), ENOENT)
		check("wait no children", p.Syscall(SysWait4, 0), EINVAL)
		check("munmap bogus", p.Syscall(SysMunmap, 0x123000, hw.PageSize), EINVAL)
		check("unknown syscall", p.Syscall(9999), ENOSYS)
		check("unassigned syscall inside the table", p.Syscall(8), ENOSYS)
		check("syscall 2^63", p.Syscall(1<<63), ENOSYS)
		// lseek on a pipe is ESPIPE.
		fdsPtr := p.Alloc(8)
		p.Syscall(SysPipe, fdsPtr)
		rfd := p.Load(fdsPtr, 4)
		check("lseek pipe", p.Syscall(SysLseek, rfd, 0, 0), ESPIPE)
		// Directory opened for writing is EISDIR.
		p.Syscall(SysMkdir, p.PushString("/adir"))
		check("open dir for write", p.Syscall(SysOpen, p.PushString("/adir"), OWrOnly), EISDIR)
		// A directory is written only through its entries: no open
		// truncates one and no write reaches its blocks.
		p.Syscall(SysClose, p.Syscall(SysOpen, p.PushString("/adir/inner"), OCreat|ORdWr))
		check("truncate dir for write", p.Syscall(SysOpen, p.PushString("/adir"), OWrOnly|OTrunc), EISDIR)
		check("truncate dir read-only", p.Syscall(SysOpen, p.PushString("/"), ORdOnly|OTrunc), EISDIR)
		// A directory opens read-only, so a write through it is refused
		// for the descriptor's mode before the file type is looked at.
		root := p.Syscall(SysOpen, p.PushString("/"), ORdOnly)
		entry := p.Alloc(direntSize)
		check("write to a directory", p.Syscall(SysWrite, root, entry, direntSize), EBADF)
		// The access mode binds every file: O_RDONLY refuses write,
		// O_WRONLY refuses read, O_RDWR allows both.
		ro := p.Syscall(SysOpen, p.PushString("/afile"), ORdOnly)
		check("write to an O_RDONLY file", p.Syscall(SysWrite, ro, p.PushString("CLOBBER!"), 8), EBADF)
		if n := p.Syscall(SysRead, ro, buf, 4); n != 4 {
			t.Errorf("read of an O_RDONLY file = %d, want 4", int64(n))
		}
		wo := p.Syscall(SysOpen, p.PushString("/afile"), OWrOnly)
		check("read from an O_WRONLY file", p.Syscall(SysRead, wo, buf, 8), EBADF)
		neither := p.Syscall(SysOpen, p.PushString("/afile"), OWrOnly|ORdWr)
		check("read with access mode 3", p.Syscall(SysRead, neither, buf, 8), EBADF)
		check("write with access mode 3", p.Syscall(SysWrite, neither, buf, 8), EBADF)
		rw := p.Syscall(SysOpen, p.PushString("/rw"), OCreat|ORdWr)
		if n := p.Syscall(SysWrite, rw, p.PushString("both"), 4); n != 4 {
			t.Errorf("write to an O_RDWR file = %d, want 4", int64(n))
		}
		p.Syscall(SysLseek, rw, 0, 0)
		if n := p.Syscall(SysRead, rw, buf, 8); n != 4 || string(p.Read(buf, 4)) != "both" {
			t.Errorf("read back of an O_RDWR file = %d", int64(n))
		}
		check("create under a file", p.Syscall(SysOpen, p.PushString("/afile/x"), OCreat|ORdWr), ENOTDIR)
		check("mkdir under a file", p.Syscall(SysMkdir, p.PushString("/afile/d")), ENOTDIR)
		// rmdir removes only an empty directory.
		check("rmdir missing", p.Syscall(SysRmdir, p.PushString("/missing")), ENOENT)
		check("rmdir of a file", p.Syscall(SysRmdir, p.PushString("/afile")), ENOTDIR)
		check("rmdir of a non-empty directory", p.Syscall(SysRmdir, p.PushString("/adir")), ENOTEMPTY)
		p.Syscall(SysMkdir, p.PushString("/empty"))
		if ret := p.Syscall(SysRmdir, p.PushString("/empty")); ret != 0 {
			t.Errorf("rmdir of an empty directory = %d, want 0", int64(ret))
		}
		check("rmdir of a removed directory", p.Syscall(SysRmdir, p.PushString("/empty")), ENOENT)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if k.WriteKernelFile("/adir", []byte("x")) {
		t.Error("WriteKernelFile wrote over a directory")
	}
	// No write reaches a directory's blocks, whatever the descriptor.
	if n, err := k.FS.WriteAt(RootIno, make([]byte, direntSize), 0); !errors.Is(err, ErrIsDir) {
		t.Errorf("FS.WriteAt on the root directory = %d, %v; want ErrIsDir", n, err)
	}
	// Every entry still resolves from the blocks alone.
	clear(k.FS.namecache)
	clear(k.FS.dirIndex)
	for _, path := range []string{"/afile", "/adir", "/adir/inner"} {
		if _, err := k.FS.Lookup(path); err != nil {
			t.Errorf("lookup %s with the name cache and index dropped: %v", path, err)
		}
	}
	if got, _ := k.ReadKernelFile("/afile"); string(got) != "file bytes" {
		t.Errorf("/afile = %q after the refused calls", got)
	}
}

// TestFsyncWritesBack drives fsync through the syscall ABI: after a
// write it returns 0 and writes dirty blocks back, and a second fsync,
// with nothing dirty, writes nothing.
func TestFsyncWritesBack(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	var wb0, wb1, wb2 uint64
	_, err := k.Spawn("fsync", func(p *Proc) {
		fd := p.Syscall(SysOpen, p.PushString("/synced"), OCreat|ORdWr)
		if n := p.Syscall(SysWrite, fd, p.PushString("durable bytes"), 13); n != 13 {
			t.Errorf("write = %d, want 13", int64(n))
		}
		_, _, wb0 = k.FS.cache.Stats()
		if ret := p.Syscall(SysFsync, fd); ret != 0 {
			t.Errorf("fsync = %d, want 0", int64(ret))
		}
		_, _, wb1 = k.FS.cache.Stats()
		if ret := p.Syscall(SysFsync, fd); ret != 0 {
			t.Errorf("second fsync = %d, want 0", int64(ret))
		}
		_, _, wb2 = k.FS.cache.Stats()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if wb1 <= wb0 {
		t.Errorf("fsync after a write wrote back %d blocks, want at least 1", wb1-wb0)
	}
	if wb2 != wb1 {
		t.Errorf("fsync with nothing dirty wrote back %d blocks, want 0", wb2-wb1)
	}
}

func TestFDExhaustion(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	k.WriteKernelFile("/x", []byte("x"))
	var lastErr uint64
	_, err := k.Spawn("hog", func(p *Proc) {
		path := p.PushString("/x")
		for i := 0; i < maxFDs+2; i++ {
			ret := p.Syscall(SysOpen, path, ORdOnly)
			if e, bad := IsErr(ret); bad {
				lastErr = e
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if lastErr != EMFILE {
		t.Errorf("fd exhaustion errno = %d", lastErr)
	}
}

func TestOTruncAndOAppend(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	k.WriteKernelFile("/t.txt", []byte("old contents here"))
	_, err := k.Spawn("p", func(p *Proc) {
		// O_TRUNC resets the file.
		fd := p.Syscall(SysOpen, p.PushString("/t.txt"), ORdWr|OTrunc)
		msg := p.PushString("new")
		p.Syscall(SysWrite, fd, msg, 3)
		p.Syscall(SysClose, fd)
		// O_APPEND starts at the end.
		fd = p.Syscall(SysOpen, p.PushString("/t.txt"), ORdWr|OAppend)
		tail := p.PushString("+tail")
		p.Syscall(SysWrite, fd, tail, 5)
		p.Syscall(SysClose, fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	got, _ := k.ReadKernelFile("/t.txt")
	if string(got) != "new+tail" {
		t.Errorf("file = %q", got)
	}
}

func TestStatSyscall(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	k.WriteKernelFile("/s.bin", make([]byte, 12345))
	var size, isdir uint64
	_, err := k.Spawn("p", func(p *Proc) {
		statBuf := p.Alloc(16)
		if ret := p.Syscall(SysStat, p.PushString("/s.bin"), statBuf); ret != 0 {
			t.Fatalf("stat: %d", int64(ret))
		}
		size = p.Load(statBuf, 8)
		p.Syscall(SysMkdir, p.PushString("/sd"))
		p.Syscall(SysStat, p.PushString("/sd"), statBuf)
		isdir = p.Load(statBuf+8, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if size != 12345 || isdir != 1 {
		t.Errorf("stat: size=%d isdir=%d", size, isdir)
	}
}

func TestDiskFullReturnsENOSPC(t *testing.T) {
	// A machine with a tiny disk fills up quickly.
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 8192, DiskBlocks: 200, Seed: 1})
	hal, err := core.NewNativeHAL(m)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(hal)
	if err != nil {
		t.Fatal(err)
	}
	var sawENOSPC bool
	_, err = k.Spawn("filler", func(p *Proc) {
		fd := p.Syscall(SysOpen, p.PushString("/big"), OCreat|ORdWr)
		buf := p.Alloc(4096)
		for i := 0; i < 300; i++ {
			ret := p.Syscall(SysWrite, fd, buf, 4096)
			if e, bad := IsErr(ret); bad {
				sawENOSPC = e == ENOSPC
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !sawENOSPC {
		t.Errorf("disk never filled or wrong errno")
	}
}

func TestOutOfMemoryKillsGracefully(t *testing.T) {
	// A machine with very little RAM: a process that touches pages
	// until allocation fails must die without wedging the kernel.
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 220, DiskBlocks: 64, Seed: 1})
	hal, err := core.NewVM(m)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(hal)
	if err != nil {
		t.Fatal(err)
	}
	survived := false
	if _, err := k.Spawn("hog", func(p *Proc) {
		base := p.Syscall(SysMmap, 4096*4096, ^uint64(0), 0)
		for off := uint64(0); ; off += hw.PageSize {
			p.Store(base+off, 8, off)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	// The kernel is still functional afterwards.
	if _, err := k.Spawn("after", func(p *Proc) {
		p.Syscall(SysGetpid)
		survived = true
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !survived {
		t.Errorf("kernel unusable after OOM kill")
	}
}

// TestHugeReadSizedByData: a read's host buffer is sized by the data
// the descriptor returns, never by the request. read and recv asking
// for 2^30, 2^40 and 2^63-1 bytes of a 5-byte file, a socket with 5
// bytes buffered and a pipe holding 5 bytes each return those 5 bytes,
// in every mode, and a 2^30-byte request allocates well under 1 MiB on
// the host (it used to allocate the full GiB; 2^40 killed the process).
func TestHugeReadSizedByData(t *testing.T) {
	forEachHAL(t, func(t *testing.T, k *Kernel) {
		if !k.WriteKernelFile("/five", []byte("hello")) {
			t.Fatal("seed file")
		}
		done := false
		if _, err := k.Spawn("reader", func(p *Proc) {
			defer func() { done = true }()
			buf := p.Alloc(64)
			msg := p.PushString("hello")
			ffd := p.Syscall(SysOpen, p.PushString("/five"), ORdOnly)
			lfd := p.Syscall(SysSocket)
			p.Syscall(SysBind, lfd, 9100)
			p.Syscall(SysListen, lfd)
			cfd := p.Syscall(SysSocket)
			p.Syscall(SysNonblock, cfd, 1) // one process plays both ends
			p.Syscall(SysConnect, cfd, 9100, LocalHost)
			afd := p.Syscall(SysAccept, lfd)
			fds := p.Alloc(8)
			p.Syscall(SysPipe, fds)
			rfd, wfd := p.Load(fds, 4), p.Load(fds+4, 4)
			sources := []struct {
				name string
				fd   uint64
				fill func()
			}{
				{"file", ffd, func() { p.Syscall(SysLseek, ffd, 0, 0) }},
				{"socket", afd, func() { p.Syscall(SysSendTo, cfd, msg, 5) }},
				{"pipe", rfd, func() { p.Syscall(SysWrite, wfd, msg, 5) }},
			}
			for _, n := range []uint64{1 << 30, 1 << 40, 1<<63 - 1} {
				for _, src := range sources {
					for _, call := range []uint64{SysRead, SysRecv} {
						src.fill()
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						got := p.Syscall(call, src.fd, buf, n)
						runtime.ReadMemStats(&after)
						if got != 5 || string(p.Read(buf, 5)) != "hello" {
							t.Errorf("%s syscall %d n=%#x = %d, want 5 bytes of hello", src.name, call, n, int64(got))
						}
						if alloc := after.TotalAlloc - before.TotalAlloc; n == 1<<30 && alloc >= 1<<20 {
							t.Errorf("%s syscall %d n=2^30 allocated %d host bytes", src.name, call, alloc)
						}
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if !done {
			t.Fatal("reader stalled")
		}
	})
}

// TestBlockedWriteKeepsItsBytes: a write that blocks on a full pipe
// resumes with its own bytes even though another process wrote through
// the kernel while it waited — the copyin scratch a write holds across
// a block belongs to its process, not to the kernel.
func TestBlockedWriteKeepsItsBytes(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	const first, second = 48 << 10, 48 << 10
	pattern := make([]byte, second)
	for i := range pattern {
		pattern[i] = byte(i % 251)
	}
	var got []byte
	done := false
	if _, err := k.Spawn("reader", func(p *Proc) {
		defer func() { done = true }()
		fds := p.Alloc(8)
		p.Syscall(SysPipe, fds)
		rfd, wfd := p.Load(fds, 4), p.Load(fds+4, 4)
		pid := p.Fork(func(c *Proc) {
			buf := c.Alloc(first)
			c.Write(buf, bytes.Repeat([]byte{'a'}, first))
			c.Syscall(SysWrite, wfd, buf, first) // fits the 64 KiB pipe
			c.Write(buf, pattern)
			c.Syscall(SysWrite, wfd, buf, second) // blocks part-way
			c.Syscall(SysExit, 0)
		})
		for k.procs[pid].state != procBlocked {
			p.Syscall(SysYield)
		}
		// Another write through the kernel while the writer waits.
		nul := p.Syscall(SysOpen, p.PushString("/dev/null"), OWrOnly)
		junk := p.Alloc(second)
		p.Write(junk, bytes.Repeat([]byte{'z'}, second))
		p.Syscall(SysWrite, nul, junk, second)
		rbuf := p.Alloc(16 << 10)
		for len(got) < first+second {
			n := p.Syscall(SysRead, rfd, rbuf, 16<<10)
			if _, bad := IsErr(n); bad || n == 0 {
				break
			}
			got = append(got, p.Read(rbuf, int(n))...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !done {
		t.Fatal("reader stalled")
	}
	want := append(bytes.Repeat([]byte{'a'}, first), pattern...)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("pipe carried %d bytes, first difference at %d of %d", len(got), i, len(want))
	}
}
