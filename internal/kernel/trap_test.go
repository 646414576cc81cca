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
