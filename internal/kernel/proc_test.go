package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

func TestForkSharesGhostMemory(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	var parentSaw, childSaw []byte
	_, err := k.Spawn("parent", func(p *Proc) {
		va, err := p.AllocGM(1)
		if err != nil {
			t.Fatalf("allocgm: %v", err)
		}
		p.Write(uint64(va), []byte("family secret"))
		p.Fork(func(c *Proc) {
			// Ghost memory is shared with the new thread (§4.6.2).
			childSaw = c.Read(uint64(va), 13)
			c.Write(uint64(va), []byte("child wrote !"))
			c.Exit(0)
		})
		p.Wait()
		parentSaw = p.Read(uint64(va), 13)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if string(childSaw) != "family secret" {
		t.Errorf("child saw %q", childSaw)
	}
	if string(parentSaw) != "child wrote !" {
		t.Errorf("parent saw %q (writes not shared)", parentSaw)
	}
}

func TestForkCopiesTraditionalMemory(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	var childSaw uint64
	var parentAfter uint64
	_, err := k.Spawn("parent", func(p *Proc) {
		buf := p.Alloc(8)
		p.Store(buf, 8, 111)
		p.Fork(func(c *Proc) {
			childSaw = c.Load(buf, 8)
			c.Store(buf, 8, 222) // must NOT affect the parent
			c.Exit(0)
		})
		p.Wait()
		parentAfter = p.Load(buf, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if childSaw != 111 {
		t.Errorf("child saw %d", childSaw)
	}
	if parentAfter != 111 {
		t.Errorf("child write leaked into the parent: %d", parentAfter)
	}
}

func TestExecClearsGhostMemory(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	if _, err := k.InstallTrustedProgram("/bin/next", nil, func(p *Proc) {
		// The new image must not inherit the old image's ghost pages.
		if p.Kernel().HAL.GhostPages(p.TID()) != 0 {
			t.Errorf("exec leaked %d ghost pages into the new image",
				p.Kernel().HAL.GhostPages(p.TID()))
		}
		p.Exit(0)
	}); err != nil {
		t.Fatal(err)
	}
	_, err := k.Spawn("orig", func(p *Proc) {
		if _, err := p.AllocGM(2); err != nil {
			t.Fatalf("allocgm: %v", err)
		}
		p.Fork(func(c *Proc) {
			if c.Kernel().HAL.GhostPages(c.TID()) != 2 {
				t.Errorf("fork did not inherit ghost pages")
			}
			_ = c.Exec("/bin/next")
			c.Exit(1)
		})
		_, code := p.Wait()
		if code != 0 {
			t.Errorf("exec'd child exited %d", code)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
}

func TestExecOfUnknownProgram(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	var errSeen bool
	_, err := k.Spawn("p", func(p *Proc) {
		if err := p.Exec("/bin/ghost-of-a-program"); err != nil {
			errSeen = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !errSeen {
		t.Errorf("exec of missing program succeeded")
	}
}

func TestSIGKILLTerminates(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	var victimPID int
	ready := false
	iterations := 0
	if _, err := k.Spawn("victim", func(p *Proc) {
		victimPID = p.PID
		ready = true
		for {
			p.Syscall(SysYield)
			iterations++
			if iterations > 10000 {
				t.Errorf("victim survived SIGKILL")
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !k.RunUntil(func() bool { return ready }) {
		t.Fatal("victim never ready")
	}
	if _, err := k.Spawn("killer", func(p *Proc) {
		p.Syscall(SysKill, uint64(victimPID), SIGKILL)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if _, alive := k.ProcByPID(victimPID); alive {
		t.Errorf("victim still in the proc table")
	}
}

func TestSegfaultKillsProcess(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		finished := false
		_, err := k.Spawn("segv", func(p *Proc) {
			p.Load(0xdead0000, 8) // far outside every VMA
			finished = true       // unreachable
		})
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if finished {
			t.Errorf("[%v] wild access did not kill the process", mode)
		}
	}
}

func TestGhostSwapSyscallRoundTrip(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	var after []byte
	_, err := k.Spawn("swapper", func(p *Proc) {
		va, _ := p.AllocGM(1)
		p.Write(uint64(va), []byte("page contents"))
		if ret := p.Syscall(SysSwapOut, uint64(va)); ret != 0 {
			t.Fatalf("swap-out: %d", int64(ret))
		}
		if k.HAL.GhostPages(p.TID()) != 0 {
			t.Errorf("page still resident")
		}
		// Touch → fault → verified swap-in.
		after = p.Read(uint64(va), 13)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if string(after) != "page contents" {
		t.Errorf("after swap: %q", after)
	}
}

func TestFileDescriptorsSharedAcrossFork(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	k.WriteKernelFile("/shared.txt", []byte("0123456789"))
	var parentRead []byte
	_, err := k.Spawn("p", func(p *Proc) {
		path := p.PushString("/shared.txt")
		fd := p.Syscall(SysOpen, path, ORdOnly)
		p.Fork(func(c *Proc) {
			// The child advances the shared offset.
			buf := c.Alloc(5)
			c.Syscall(SysRead, fd, buf, 5)
			c.Exit(0)
		})
		p.Wait()
		buf := p.Alloc(5)
		n := p.Syscall(SysRead, fd, buf, 5)
		parentRead = p.Read(buf, int(n))
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if string(parentRead) != "56789" {
		t.Errorf("shared offset broken: parent read %q", parentRead)
	}
}

func TestZombieReaping(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	_, err := k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Fork(func(c *Proc) { c.Exit(i) })
			p.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if n := k.NumLive(); n != 0 {
		t.Errorf("%d processes leaked", n)
	}
}

func TestFrameAccountingAcrossProcessLifecycle(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		free0 := k.M.Mem.FreeFrames()
		_, err := k.Spawn("p", func(p *Proc) {
			buf := p.Alloc(5 * hw.PageSize)
			p.Write(buf, bytes.Repeat([]byte{1}, 5*hw.PageSize))
			if _, err := p.AllocGM(3); err != nil {
				t.Fatalf("allocgm: %v", err)
			}
			base := p.Syscall(SysMmap, 4*hw.PageSize, ^uint64(0), 0)
			p.Store(base, 8, 7)
		})
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if free1 := k.M.Mem.FreeFrames(); free1 != free0 {
			t.Errorf("[%v] frames leaked: %d -> %d", mode, free0, free1)
		}
	}
}

func TestSignalDuringBlockedSyscall(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	handled := false
	var pid int
	ready := false
	if _, err := k.Spawn("reader", func(p *Proc) {
		pid = p.PID
		addr := p.RegisterCode(func(p *Proc, args []uint64) { handled = true })
		if err := p.PermitFunction(addr); err != nil {
			t.Fatal(err)
		}
		p.Syscall(SysSigact, SIGUSR1, addr)
		fdsPtr := p.Alloc(8)
		p.Syscall(SysPipe, fdsPtr)
		rfd := p.Load(fdsPtr, 4)
		ready = true
		buf := p.Alloc(8)
		p.Syscall(SysRead, rfd, buf, 8) // blocks until the writer runs
	}); err != nil {
		t.Fatal(err)
	}
	if !k.RunUntil(func() bool { return ready }) {
		t.Fatal("reader never blocked")
	}
	if _, err := k.Spawn("signaler", func(p *Proc) {
		p.Syscall(SysKill, uint64(pid), SIGUSR1)
	}); err != nil {
		t.Fatal(err)
	}
	// Unblock the reader by feeding the pipe from a third process that
	// shares... it cannot (fds are per-process); instead let the reader
	// stay blocked and verify delivery on kill: the signal is delivered
	// on the signaler's kill path at the reader's next trap return.
	k.RunUntilIdle()
	_ = handled // delivery timing is checked by TestSignalDelivery; the
	// invariant here is just that nothing deadlocks or panics.
}

func TestStatsCounters(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	_, err := k.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Syscall(SysGetpid)
		}
		p.Fork(func(c *Proc) { c.Exit(0) })
		p.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	st := k.Stats()
	if st.Syscalls < 12 || st.ForksCreated != 1 || st.ContextSwitch == 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestNestedSignalDelivery: a handler interrupted by a second signal;
// the VM's interrupt-context stack must restore states in LIFO order.
func TestNestedSignalDelivery(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	var order []int
	_, err := k.Spawn("nest", func(p *Proc) {
		var inner uint64
		innerAddr := p.RegisterCode(func(p *Proc, args []uint64) {
			order = append(order, 2)
		})
		outerAddr := p.RegisterCode(func(p *Proc, args []uint64) {
			order = append(order, 1)
			// Signal ourselves from inside the handler: delivered on
			// the kill syscall's return-to-user path, nesting the
			// contexts.
			p.Syscall(SysKill, uint64(p.PID), SIGUSR2)
			order = append(order, 3)
		})
		if err := p.PermitFunction(innerAddr); err != nil {
			t.Fatal(err)
		}
		if err := p.PermitFunction(outerAddr); err != nil {
			t.Fatal(err)
		}
		p.Syscall(SysSigact, SIGUSR1, outerAddr)
		p.Syscall(SysSigact, SIGUSR2, innerAddr)
		p.Syscall(SysKill, uint64(p.PID), SIGUSR1)
		order = append(order, 4)
		_ = inner
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	want := []int{1, 2, 3, 4}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestExitReturnsEveryFrame: processes that fork and exit, or fork and
// exec an installed program, hand back every frame — user pages and
// every level of their page tables — so the free count after each
// round of them equals the count after the first round, which has paid
// for whatever the kernel keeps.
func TestExitReturnsEveryFrame(t *testing.T) {
	forEachHAL(t, func(t *testing.T, k *Kernel) {
		if _, err := k.InstallTrustedProgram("/bin/true", nil, func(p *Proc) { p.Exit(0) }); err != nil {
			t.Fatal(err)
		}
		var free []int
		done := false
		if _, err := k.Spawn("parent", func(p *Proc) {
			defer func() { done = true }()
			// One status word, touched now: the parent's own pages stay
			// put across the rounds.
			status := p.Alloc(8)
			p.Store(status, 8, 0)
			for round := 0; round < 4; round++ {
				for i := 0; i < 20; i++ {
					p.Fork(func(c *Proc) { c.Exit(0) })
					p.Syscall(SysWait4, status)
				}
				for i := 0; i < 20; i++ {
					p.Fork(func(c *Proc) {
						_ = c.Exec("/bin/true")
						c.Exit(1)
					})
					p.Syscall(SysWait4, status)
				}
				free = append(free, k.M.Mem.FreeFrames())
			}
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if !done || len(free) != 4 {
			t.Fatalf("parent stalled after %d rounds", len(free))
		}
		for round, n := range free[1:] {
			if n != free[0] {
				t.Errorf("free frames after round %d: %d, after round 0: %d", round+1, n, free[0])
			}
		}
	})
}

// TestReadIntoChargesLikeRead: Proc.ReadInto copies the same bytes as
// Proc.Read and charges the same cycles to the same tags, for copies
// within a page, across pages, and starting on a page that
// demand-faults on first touch (the fault restarts the copy).
func TestReadIntoChargesLikeRead(t *testing.T) {
	forEachHAL(t, func(t *testing.T, k *Kernel) {
		var fails []string
		done := false
		if _, err := k.Spawn("reader", func(p *Proc) {
			defer func() { done = true }()
			// region returns an address 100 bytes into fresh page-aligned
			// heap with room for n bytes, and the bytes it holds. A cold
			// region's first page is left untouched.
			region := func(n int, cold bool) (uint64, []byte) {
				const off = 100
				p.Alloc(int(-p.Alloc(0) & (hw.PageSize - 1)))
				va := p.Alloc((off+n+hw.PageSize-1)/hw.PageSize*hw.PageSize) + off
				want := make([]byte, n)
				for i := range want {
					want[i] = byte(i*7 + n)
				}
				start := 0
				if cold {
					start = min(n, hw.PageSize-off)
					clear(want[:start])
				}
				if start < n {
					p.Write(va+uint64(start), want[start:])
				}
				return va, want
			}
			clk := k.M.Clock
			for _, n := range []int{1, 4096, 4097, 40_000} {
				var warm uint64
				for _, cold := range []bool{false, true} {
					va1, want := region(n, cold)
					va2, _ := region(n, cold)
					c0, l0 := clk.Cycles(), clk.Ledger()
					got := p.Read(va1, n)
					c1, l1 := clk.Cycles(), clk.Ledger()
					into := make([]byte, n)
					p.ReadInto(va2, into)
					c2, l2 := clk.Cycles(), clk.Ledger()
					if !bytes.Equal(got, want) || !bytes.Equal(into, want) {
						fails = append(fails, fmt.Sprintf("n=%d cold=%v: bytes differ", n, cold))
					}
					if c1-c0 != c2-c1 || l1.Sub(l0) != l2.Sub(l1) {
						fails = append(fails, fmt.Sprintf("n=%d cold=%v: Read charged %d cycles %v, ReadInto %d %v",
							n, cold, c1-c0, l1.Sub(l0), c2-c1, l2.Sub(l1)))
					}
					if !cold {
						warm = c1 - c0
					} else if c1-c0 <= warm {
						fails = append(fails, fmt.Sprintf("n=%d: the cold copy charged %d cycles, no more than the warm %d: no fault", n, c1-c0, warm))
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
		for _, f := range fails {
			t.Error(f)
		}
	})
}
