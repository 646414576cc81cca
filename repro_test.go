package repro_test

import (
	"testing"

	"repro"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
)

func TestNewSystemAllModes(t *testing.T) {
	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost, repro.Shadow} {
		sys, err := repro.NewSystem(mode)
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		if sys.Mode != mode || sys.Kernel == nil || sys.HAL.Mode() != mode {
			t.Errorf("[%v] system wiring wrong", mode)
		}
		// The kernel must be able to run a trivial process.
		ran := false
		if _, err := sys.Kernel.Spawn("probe", func(p *kernel.Proc) {
			p.Syscall(kernel.SysGetpid)
			ran = true
		}); err != nil {
			t.Fatal(err)
		}
		sys.Kernel.RunUntilIdle()
		if !ran {
			t.Errorf("[%v] process did not run", mode)
		}
	}
}

func TestNewSystemUnknownMode(t *testing.T) {
	if _, err := repro.NewSystem(repro.Mode(99)); err == nil {
		t.Errorf("unknown mode accepted")
	}
}

func TestNetworkedPairSharesClock(t *testing.T) {
	server, client, world, err := repro.NewNetworkedPair(repro.Native, repro.Native)
	if err != nil {
		t.Fatal(err)
	}
	if server.Machine.Clock != client.Machine.Clock {
		t.Errorf("machines do not share a clock")
	}
	if len(world.Kernels) != 2 {
		t.Errorf("world has %d kernels", len(world.Kernels))
	}
	// Ping across the pair.
	var got string
	if _, err := server.Kernel.Spawn("srv", func(p *kernel.Proc) {
		s := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysBind, s, 1234)
		p.Syscall(kernel.SysListen, s)
		c := p.Syscall(kernel.SysAccept, s)
		buf := p.Alloc(16)
		n := p.Syscall(kernel.SysRecv, c, buf, 16)
		got = string(p.Read(buf, int(n)))
	}); err != nil {
		t.Fatal(err)
	}
	done := false
	if _, err := client.Kernel.Spawn("cli", func(p *kernel.Proc) {
		c := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, c, 1234, kernel.RemoteHost)
		m := p.PushString("ping")
		p.Syscall(kernel.SysSendTo, c, m, 4)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done && got != "" }) {
		t.Fatalf("pair deadlocked")
	}
	if got != "ping" {
		t.Errorf("got %q", got)
	}
}

// TestREADMEQuickstart keeps the README's quickstart snippet honest.
func TestREADMEQuickstart(t *testing.T) {
	sys := repro.MustNewSystem(repro.VirtualGhost)
	done := false
	if _, err := sys.Kernel.Spawn("app", func(p *kernel.Proc) {
		l, err := libc.NewGhosting(p)
		if err != nil {
			t.Errorf("libc: %v", err)
			return
		}
		secret, err := l.Malloc(64)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		l.WriteGhost(secret, []byte("invisible to the OS"))
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	if !done {
		t.Errorf("quickstart flow failed")
	}
}

func TestElapsedAndConsole(t *testing.T) {
	sys := repro.MustNewSystem(repro.Native)
	start := sys.Machine.Clock.Cycles()
	sys.Machine.Clock.Charge(hw.TagOther, 3_400_000) // 1 ms
	if e := sys.Elapsed(start); e < 0.0009 || e > 0.0011 {
		t.Errorf("Elapsed = %v", e)
	}
	sys.Machine.Console.Printf("boot ok")
	if len(sys.Console()) != 1 {
		t.Errorf("console = %v", sys.Console())
	}
}

func TestCustomMachineOptions(t *testing.T) {
	sys, err := repro.NewSystemWithOptions(repro.Native, repro.Options{
		Machine: hw.MachineConfig{MemFrames: 1024, DiskBlocks: 128, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.Mem.NumFrames() != 1024 {
		t.Errorf("frames = %d", sys.Machine.Mem.NumFrames())
	}
}
