// Package repro is the public API of the Virtual Ghost reproduction
// (Criswell, Dautenhahn, Adve — ASPLOS 2014): it boots complete
// simulated systems — hardware, the chosen protection configuration
// (Native baseline, Virtual Ghost, or the InkTag-style shadowing
// baseline), and the FreeBSD-like kernel — and exposes the pieces a
// downstream user needs: the kernel (processes, syscalls, files,
// sockets), the HAL (ghost memory, keys, trusted services), and the
// machine (clock, devices, console).
//
// Quickstart:
//
//	sys := repro.MustNewSystem(repro.VirtualGhost)
//	sys.Kernel.Spawn("app", func(p *kernel.Proc) {
//	    l, _ := libc.NewGhosting(p)
//	    secret, _ := l.Malloc(64)
//	    l.WriteGhost(secret, []byte("invisible to the OS"))
//	})
//	sys.Kernel.RunUntilIdle()
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/shadow"
)

// Mode selects the protection configuration.
type Mode = core.Mode

// The three configurations of the paper's evaluation.
const (
	// Native is the unprotected FreeBSD/LLVM baseline.
	Native = core.ModeNative
	// VirtualGhost is the full system: compiler-instrumented kernel,
	// SVA-OS checks, ghost memory, protected interrupt contexts,
	// TPM-rooted keys, encrypted swap.
	VirtualGhost = core.ModeVirtualGhost
	// Shadow is the InkTag/Overshadow-style hypervisor baseline used
	// for the Table 2 comparison columns.
	Shadow = core.ModeShadow
)

// System is one booted machine: hardware + HAL + kernel.
type System struct {
	Mode    Mode
	Machine *hw.Machine
	HAL     core.HAL
	Kernel  *kernel.Kernel
}

// Options tunes system construction.
type Options struct {
	// Machine sizes the hardware; zero value uses hw.DefaultConfig.
	Machine hw.MachineConfig
	// SharedClock, when non-nil, makes this machine tick the same
	// virtual clock as another (for multi-machine experiments).
	SharedClock *hw.Clock
}

// NewSystem boots a system in the given mode with default options.
func NewSystem(mode Mode) (*System, error) {
	return NewSystemWithOptions(mode, Options{})
}

// MustNewSystem is NewSystem, panicking on error (for examples).
func MustNewSystem(mode Mode) *System {
	s, err := NewSystem(mode)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemWithOptions boots a system with explicit options.
func NewSystemWithOptions(mode Mode, opts Options) (*System, error) {
	cfg := opts.Machine
	if cfg.MemFrames == 0 && cfg.DiskBlocks == 0 && cfg.Seed == 0 {
		ncpus := cfg.NumCPUs
		cfg = hw.DefaultConfig()
		cfg.NumCPUs = ncpus
	}
	var m *hw.Machine
	if opts.SharedClock != nil {
		m = hw.NewMachineWith(cfg, opts.SharedClock)
	} else {
		m = hw.NewMachine(cfg)
	}
	var hal core.HAL
	var err error
	switch mode {
	case VirtualGhost:
		hal, err = core.NewVM(m)
	case Shadow:
		hal, err = shadow.New(m)
	case Native:
		hal, err = core.NewNativeHAL(m)
	default:
		return nil, fmt.Errorf("repro: unknown mode %v", mode)
	}
	if err != nil {
		return nil, err
	}
	k, err := kernel.Boot(hal)
	if err != nil {
		return nil, err
	}
	return &System{Mode: mode, Machine: m, HAL: hal, Kernel: k}, nil
}

// NewNetworkedPair boots a server system in serverMode, then a client
// system in clientMode on the server's clock, connects their NICs with
// a dedicated link, and puts both kernels on one World co-scheduler —
// the two-machine setup of the paper's network experiments.
func NewNetworkedPair(serverMode, clientMode Mode) (server, client *System, world *kernel.World, err error) {
	server, err = NewSystem(serverMode)
	if err != nil {
		return nil, nil, nil, err
	}
	client, err = NewSystemWithOptions(clientMode, Options{SharedClock: server.Machine.Clock})
	if err != nil {
		return nil, nil, nil, err
	}
	hw.Connect(server.Machine.NIC, client.Machine.NIC)
	world = &kernel.World{Kernels: []*kernel.Kernel{server.Kernel, client.Kernel}}
	return server, client, world, nil
}

// Elapsed converts a cycle interval on this system's clock to seconds.
func (s *System) Elapsed(startCycles uint64) float64 {
	return hw.Seconds(s.Machine.Clock.Cycles() - startCycles)
}

// Console returns the machine console transcript.
func (s *System) Console() []string { return s.Machine.Console.Lines() }
