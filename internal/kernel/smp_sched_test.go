package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

// bootSMPKernel boots a kernel on a machine with n virtual CPUs.
func bootSMPKernel(t *testing.T, mode core.Mode, n int) *Kernel {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = n
	m := hw.NewMachine(cfg)
	var hal core.HAL
	var err error
	switch mode {
	case core.ModeVirtualGhost:
		hal, err = core.NewVM(m)
	default:
		hal, err = core.NewNativeHAL(m)
	}
	if err != nil {
		t.Fatalf("HAL: %v", err)
	}
	k, err := Boot(hal)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return k
}

// spinner returns a program that yields `rounds` times, counting its
// dispatches into counts[idx].
func spinner(counts []int, idx, rounds int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < rounds; i++ {
			counts[idx]++
			p.Syscall(SysYield)
		}
	}
}

// TestSMPSpreadsProcessesAcrossCPUs checks that on a 4-CPU machine the
// home-CPU affinity distributes processes round-robin and every CPU
// accumulates busy time.
func TestSMPSpreadsProcessesAcrossCPUs(t *testing.T) {
	const ncpu = 4
	k := bootSMPKernel(t, core.ModeVirtualGhost, ncpu)
	if k.NumCPUs() != ncpu {
		t.Fatalf("NumCPUs = %d, want %d", k.NumCPUs(), ncpu)
	}
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		if _, err := k.Spawn("spin", spinner(counts, i, 10)); err != nil {
			t.Fatalf("Spawn: %v", err)
		}
	}
	k.RunUntilIdle()
	for i, c := range counts {
		if c != 10 {
			t.Errorf("proc %d ran %d rounds, want 10", i, c)
		}
	}
	for i, b := range k.CPUBusy() {
		if b == 0 {
			t.Errorf("CPU %d accumulated no busy cycles", i)
		}
	}
}

// TestSMPWorkStealing checks that an idle CPU steals runnable work:
// with 2 CPUs and processes pinned (by PID parity) to CPU 0's queue
// only, CPU 1 must steal to stay busy.
func TestSMPWorkStealing(t *testing.T) {
	k := bootSMPKernel(t, core.ModeNative, 2)
	counts := make([]int, 3)
	// PIDs 1,2,3: homes are CPU 0, 1, 0. Let the CPU-1 process finish
	// fast so CPU 1 goes idle while CPU 0's queue still has two
	// long-running processes — forcing a steal.
	if _, err := k.Spawn("long-a", spinner(counts, 0, 50)); err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if _, err := k.Spawn("short", spinner(counts, 1, 1)); err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if _, err := k.Spawn("long-b", spinner(counts, 2, 50)); err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	k.RunUntilIdle()
	if counts[0] != 50 || counts[2] != 50 {
		t.Fatalf("long spinners ran %d/%d rounds, want 50/50", counts[0], counts[2])
	}
	if k.Stats().Steals == 0 {
		t.Errorf("expected work stealing on an idle CPU, got 0 steals")
	}
	busy := k.CPUBusy()
	if busy[1] == 0 {
		t.Errorf("CPU 1 stayed idle despite stealable work")
	}
}

// TestCrossCPUSignalSendsIPI checks that posting a signal to a process
// homed on another CPU raises a rescheduling IPI.
func TestCrossCPUSignalSendsIPI(t *testing.T) {
	k := bootSMPKernel(t, core.ModeVirtualGhost, 2)
	var targetPID uint64
	// PID 1 → CPU 0; PID 2 → CPU 1.
	if _, err := k.Spawn("victim", func(p *Proc) {
		targetPID = uint64(p.PID)
		for i := 0; i < 20; i++ {
			p.Syscall(SysYield)
		}
	}); err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if _, err := k.Spawn("killer", func(p *Proc) {
		p.Syscall(SysYield) // let the victim publish its PID
		p.Syscall(SysKill, targetPID, SIGUSR1)
	}); err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	k.RunUntilIdle()
	if k.Stats().IPIs == 0 {
		t.Errorf("cross-CPU signal sent no rescheduling IPI")
	}
	sent, delivered, _ := k.M.IPICounts()
	if sent == 0 || delivered == 0 {
		t.Errorf("machine IPI counters: sent=%d delivered=%d, want both > 0", sent, delivered)
	}
}

// TestUserPhaseReadsEpochBase pins the user phase's clock rule at 2
// and 4 CPUs: every user segment of an epoch counts from the same base,
// as it would on parallel hardware. One process per CPU reads
// Clock.Cycles before and after Compute, ComputeCrypt and a user-memory
// copy inside one segment, and every read must be the clock at the
// start of the user phase, whichever CPU ran first. At the barrier the
// clock must read that base plus the sum of the segments, each CPU's
// ledger must hold its own segment's compute and crypt cycles, and each
// CPU's busy counter must be credited with its segment. The epoch runs
// phase by phase, as Kernel.epoch runs it, so the test can read the
// clock between the phases.
func TestUserPhaseReadsEpochBase(t *testing.T) {
	for _, ncpu := range []int{2, 4} {
		t.Run(fmt.Sprintf("%d CPUs", ncpu), func(t *testing.T) {
			k := bootSMPKernel(t, core.ModeNative, ncpu)
			clk := k.M.Clock
			compute := func(i int) uint64 { return uint64(1000*(i+1) + 7) }
			crypt := func(i int) uint64 { return uint64(100*(i+1) + 3) }
			released := false
			reads := make([][]uint64, ncpu) // by process
			onCPU := make([]int, ncpu)      // by process
			for i := 0; i < ncpu; i++ {
				if _, err := k.Spawn("reader", func(p *Proc) {
					buf := p.Alloc(64)
					p.Write(buf, make([]byte, 64)) // fault the page in first
					p.block(func() bool { return released })
					r := []uint64{clk.Cycles()}
					p.Compute(compute(i))
					r = append(r, clk.Cycles())
					p.ComputeCrypt(crypt(i))
					r = append(r, clk.Cycles())
					p.Write(buf, bytes.Repeat([]byte{byte(i)}, 8*(i+1)))
					reads[i] = append(r, clk.Cycles())
					onCPU[i] = p.onCPU
				}); err != nil {
					t.Fatalf("Spawn: %v", err)
				}
			}
			k.RunUntilIdle() // every reader has its page and is blocked
			released = true

			for _, c := range k.cpus {
				k.dispatchEpoch(c)
				if c.slot == nil {
					t.Fatalf("cpu%d dispatched nothing", c.id)
				}
			}
			base := clk.Cycles()
			busy := k.CPUBusy()
			ledgers := make([]hw.Ledger, ncpu)
			for i := range ledgers {
				ledgers[i] = clk.CPULedger(i)
			}
			k.userPhase()
			after := clk.Cycles()
			busyAfter := k.CPUBusy()
			segs := make([]hw.Ledger, ncpu)
			for i := range segs {
				segs[i] = clk.CPULedger(i).Sub(ledgers[i])
			}
			k.kernelPhase()
			k.RunUntilIdle()

			for i, r := range reads {
				if len(r) != 4 {
					t.Fatalf("process %d took %d of its 4 clock reads", i, len(r))
				}
				for j, v := range r {
					if v != base {
						t.Errorf("process %d on cpu%d: read %d = %d, want the epoch base %d", i, onCPU[i], j, v, base)
					}
				}
			}
			var sum uint64
			for i, cpu := range onCPU {
				seg := segs[cpu]
				if seg[hw.TagCompute] != compute(i) || seg[hw.TagCrypt] != crypt(i) {
					t.Errorf("cpu%d ledger: compute %d crypt %d, want its segment's %d and %d",
						cpu, seg[hw.TagCompute], seg[hw.TagCrypt], compute(i), crypt(i))
				}
				if got := busyAfter[cpu] - busy[cpu]; got != seg.Total() {
					t.Errorf("cpu%d busy credit = %d, want its segment's %d cycles", cpu, got, seg.Total())
				}
				sum += seg.Total()
			}
			if after != base+sum {
				t.Errorf("clock at the barrier = %d, want base %d + segments %d = %d", after, base, sum, base+sum)
			}
		})
	}
}

// TestSMPDeterminism runs an identical 4-CPU workload twice and demands
// bit-identical virtual time: the interleaver must not depend on host
// scheduling or map iteration order.
func TestSMPDeterminism(t *testing.T) {
	run := func() uint64 {
		k := bootSMPKernel(t, core.ModeVirtualGhost, 4)
		counts := make([]int, 6)
		for i := 0; i < 6; i++ {
			if _, err := k.Spawn("det", spinner(counts, i, 8)); err != nil {
				t.Fatalf("Spawn: %v", err)
			}
		}
		k.RunUntilIdle()
		return k.M.Clock.Cycles()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("4-CPU runs diverged: %d vs %d cycles", a, b)
	}
}

// TestSchedulerFairnessRoundRobin is the regression test for the sorted
// run-queue rework: the scheduler must still rotate through runnable
// processes (no process starves, dispatch counts stay balanced) and
// must not degenerate into always running the lowest PID.
func TestSchedulerFairnessRoundRobin(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	const nproc, rounds = 5, 40
	counts := make([]int, nproc)
	order := make([]int, 0, nproc*rounds)
	for i := 0; i < nproc; i++ {
		i := i
		if _, err := k.Spawn("fair", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				counts[i]++
				order = append(order, p.PID)
				p.Syscall(SysYield)
			}
		}); err != nil {
			t.Fatalf("Spawn: %v", err)
		}
	}
	k.RunUntilIdle()
	for i, c := range counts {
		if c != rounds {
			t.Errorf("proc %d ran %d rounds, want %d", i, c, rounds)
		}
	}
	// Round-robin: within the steady state every window of nproc
	// dispatches contains each PID exactly once.
	for start := 0; start+nproc <= len(order); start += nproc {
		seen := make(map[int]bool, nproc)
		for _, pid := range order[start : start+nproc] {
			if seen[pid] {
				t.Fatalf("dispatch window at %d repeats pid %d (order %v); round-robin broken",
					start, pid, order[start:start+nproc])
			}
			seen[pid] = true
		}
	}
}

// TestRunQueueMaintainedAcrossChurn checks the incremental sorted queue
// survives process creation and exit: after churn, surviving processes
// still schedule in ascending-PID round-robin order.
func TestRunQueueMaintainedAcrossChurn(t *testing.T) {
	k := bootKernel(t, core.ModeNative)
	// Wave 1: three short-lived processes that exit immediately.
	for i := 0; i < 3; i++ {
		if _, err := k.Spawn("ephemeral", func(p *Proc) {}); err != nil {
			t.Fatalf("Spawn: %v", err)
		}
	}
	k.RunUntilIdle()
	// Wave 2: survivors created after the queue shrank.
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		if _, err := k.Spawn("survivor", spinner(counts, i, 12)); err != nil {
			t.Fatalf("Spawn: %v", err)
		}
	}
	k.RunUntilIdle()
	for i, c := range counts {
		if c != 12 {
			t.Errorf("survivor %d ran %d rounds, want 12", i, c)
		}
	}
	if got := k.NumLive(); got != 0 {
		t.Errorf("NumLive = %d after all exits, want 0", got)
	}
}
