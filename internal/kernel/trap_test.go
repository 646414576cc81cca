package kernel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/shadow"
)

// forEachHAL runs fn as a subtest on a freshly booted kernel in each of
// the three configurations.
func forEachHAL(t *testing.T, fn func(t *testing.T, k *Kernel)) {
	hals := []struct {
		name string
		new  func(m *hw.Machine) (core.HAL, error)
	}{
		{"native", func(m *hw.Machine) (core.HAL, error) { return core.NewNativeHAL(m) }},
		{"vghost", func(m *hw.Machine) (core.HAL, error) { return core.NewVM(m) }},
		{"shadow", func(m *hw.Machine) (core.HAL, error) { return shadow.New(m) }},
	}
	for _, h := range hals {
		t.Run(h.name, func(t *testing.T) {
			hal, err := h.new(hw.NewMachine(hw.DefaultConfig()))
			if err != nil {
				t.Fatal(err)
			}
			k, err := Boot(hal)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, k)
		})
	}
}

// TestBlockedTrapKeepsItsFrame: a syscall that blocks resumes from its
// own thread's saved frame, even though another thread trapped on the
// same CPU — overwriting the CPU's entry slot — while it waited.
func TestBlockedTrapKeepsItsFrame(t *testing.T) {
	const parentRBX, parentRSP = 0x1111_2222, 0x7fff_1000
	forEachHAL(t, func(t *testing.T, k *Kernel) {
		var got, rbx, rsp uint64
		done, blocked := false, false
		if _, err := k.Spawn("parent", func(p *Proc) {
			defer func() { done = true }()
			fds := p.Alloc(8)
			p.Syscall(SysPipe, fds)
			rfd, wfd := p.Load(fds, 4), p.Load(fds+4, 4)
			p.Fork(func(c *Proc) {
				blocked = p.state == procBlocked
				cpu := k.M.Cur()
				cpu.Regs.GPR[hw.RBX], cpu.Regs.RSP = 0x3333_4444, 0x7ffe_2000
				for range 5 {
					c.Syscall(SysGetpid)
				}
				buf := c.PushString("sixsix")
				c.Syscall(SysWrite, wfd, buf, 6)
				c.Exit(0)
			})
			buf := p.Alloc(64)
			cpu := k.M.Cur()
			cpu.Regs.GPR[hw.RBX], cpu.Regs.RSP = parentRBX, parentRSP
			got = p.Syscall(SysRead, rfd, buf, 64) // blocks: the pipe is empty
			cpu = k.M.Cur()
			rbx, rsp = cpu.Regs.GPR[hw.RBX], cpu.Regs.RSP
			p.Wait()
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if !done {
			t.Fatal("parent stalled")
		}
		if !blocked {
			t.Fatal("the child ran before the parent's read blocked")
		}
		if got != 6 {
			t.Errorf("blocked read returned %d, want 6", int64(got))
		}
		if rbx != parentRBX || rsp != parentRSP {
			t.Errorf("after the blocked read rbx=%#x rsp=%#x, want %#x %#x", rbx, rsp, parentRBX, parentRSP)
		}
	})
}

// TestSyscallAllocatesNothing: the trap path — entry, the HAL's save of
// the interrupt context, dispatch and return — makes no host
// allocation once the thread's handle exists.
func TestSyscallAllocatesNothing(t *testing.T) {
	forEachHAL(t, func(t *testing.T, k *Kernel) {
		allocs := -1.0
		if _, err := k.Spawn("getpid", func(p *Proc) {
			p.Syscall(SysGetpid)
			allocs = testing.AllocsPerRun(100, func() { p.Syscall(SysGetpid) })
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if allocs != 0 {
			t.Errorf("getpid allocates %v host objects per call, want 0", allocs)
		}
	})
}

// TestPathSyscallAllocations: the path walk allocates nothing on the
// host. copyinPath collects into a stack buffer, splitPath fills the
// walk's stack array, and stat's result goes out from kernel scratch,
// so stat of an existing file makes one host object (the path string)
// and open+close three (the path, the file and its descriptor). The
// scratch is shared, so a file's stat after a directory's must still
// report it is not a directory.
func TestPathSyscallAllocations(t *testing.T) {
	payload := []byte("twelve bytes")
	forEachHAL(t, func(t *testing.T, k *Kernel) {
		if !k.WriteKernelFile("/motd", payload) {
			t.Fatal("WriteKernelFile failed")
		}
		statAllocs, openAllocs := -1.0, -1.0
		var size, ret, rootDir, fileDir uint64
		if _, err := k.Spawn("paths", func(p *Proc) {
			path := p.PushString("/motd")
			buf := p.Alloc(16)
			p.Syscall(SysStat, p.PushString("/"), buf)
			rootDir = p.Load(buf+8, 8)
			ret = p.Syscall(SysStat, path, buf)
			size, fileDir = p.Load(buf, 8), p.Load(buf+8, 8)
			statAllocs = testing.AllocsPerRun(100, func() { p.Syscall(SysStat, path, buf) })
			openAllocs = testing.AllocsPerRun(100, func() {
				fd := p.Syscall(SysOpen, path, ORdOnly)
				p.Syscall(SysClose, fd)
			})
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if ret != 0 || size != uint64(len(payload)) || rootDir != 1 || fileDir != 0 {
			t.Fatalf("stat returned %d with size %d, is-dir %d (root %d), want 0, %d, 0 (root 1)",
				int64(ret), size, fileDir, rootDir, len(payload))
		}
		if statAllocs < 0 || statAllocs > 1 {
			t.Errorf("stat allocates %v host objects per call, want at most 1", statAllocs)
		}
		if openAllocs < 0 || openAllocs > 3 {
			t.Errorf("open+close allocates %v host objects per pair, want at most 3", openAllocs)
		}
	})
}
