package kernel

import "fmt"

// This file is the epoch/barrier scheduler used on every multi-CPU
// machine (DESIGN.md §14). Execution proceeds in epochs of three
// strictly ordered phases, each serial in CPU-id order:
//
//  1. Schedule phase: every CPU whose slot is empty picks its next
//     runnable process (stealing one if its own queue has none) and
//     performs the same context switch as the single-CPU loop —
//     pending IPIs drain, the switch cost is charged, the address space
//     is loaded — and the process is pinned to the CPU as its in-flight
//     slot.
//  2. User phase: every slot whose process is in user mode runs one
//     user segment — user instructions up to the next HAL entry
//     (syscall, trap, ghost/key operation) or voluntary end. The clock
//     holds the epoch base for the whole phase (hw.Clock.BeginUserPhase)
//     and each segment charges its own CPU's ledger, so every CPU's
//     user time in an epoch counts from the same base: a CPU does not
//     see the cycles of the segments that ran before it in the phase,
//     as it would not on real parallel hardware.
//  3. Kernel phase: the barrier. The segments' cycles join the clock,
//     then each slot that parked wanting kernel work runs its kernel
//     segment — syscall handlers, fault handling, IPIs, TLB shootdowns,
//     signal delivery — on the shared clock, one at a time.
//
// Every phase runs in a fixed order and exactly one process goroutine
// runs at a time, so every virtual number — cycle totals, ledgers,
// per-CPU attribution, trace events, experiment tables — depends on the
// workload alone (TestGoldenSMP pins them).

// pendKind tells the epoch scheduler which phase resumes a CPU's
// in-flight process next.
type pendKind uint8

const (
	pendNone pendKind = iota
	// pendUser: the process resumes in the next user phase (fresh
	// dispatch of a user-mode process, or its kernel segment finished).
	pendUser
	// pendKernel: the process resumes in the next kernel phase (it
	// parked at a HAL entry, or was redispatched mid-syscall after a
	// yield/block inside the kernel).
	pendKernel
)

// epoch advances the machine by one epoch. It reports whether any CPU
// had work (in flight or newly dispatched); an all-idle epoch performs
// nothing and ends the run loop.
func (k *Kernel) epoch() bool {
	// Network input is polled once per epoch, before scheduling, so
	// packets from a peer machine promote blocked readers this epoch.
	k.Net.Poll()
	work := false
	for _, c := range k.cpus {
		if c.slot == nil {
			k.dispatchEpoch(c)
		}
		if c.slot != nil {
			work = true
		}
	}
	if !work {
		return false
	}
	k.userPhase()
	k.kernelPhase()
	return true
}

// dispatchEpoch fills CPU c's empty slot with its next runnable
// process, performing the same context switch (and charging the same
// cycles) as the single-CPU loop. Schedule phase, CPU-id order.
func (k *Kernel) dispatchEpoch(c *cpuRun) {
	p := k.pickNextOn(c)
	if p == nil {
		p = k.steal(c)
	}
	if p == nil {
		return
	}
	start := k.switchTo(c, p)
	p.inflight = true
	c.slot = p
	if p.kdepth > 0 {
		// The process parked inside a kernel segment (a yield or block
		// in a syscall handler): it resumes in the kernel phase.
		c.pend = pendKernel
	} else {
		c.pend = pendUser
	}
	c.busy += k.M.Clock.Cycles() - start
}

// userPhase runs one user segment on every slot that is pending user
// execution, one at a time in CPU-id order, each timed from the epoch
// base, crediting each CPU's busy time with its segment and recording
// how the segment ended.
func (k *Kernel) userPhase() {
	clk := k.M.Clock
	clk.BeginUserPhase()
	for _, c := range k.cpus {
		if c.slot == nil || c.pend != pendUser {
			continue
		}
		p := c.slot
		clk.BeginSegment(c.id, int32(p.PID))
		p.runCh <- struct{}{}
		<-p.yldCh
		c.busy += clk.EndSegment()
		switch p.parkWhy {
		case parkKernel:
			c.pend = pendKernel
		case parkEnd:
			p.inflight = false
			c.slot = nil
			c.pend = pendNone
		default:
			panic(fmt.Sprintf("kernel: pid %d parked %d out of a user segment", p.PID, p.parkWhy))
		}
	}
	clk.EndUserPhase()
}

// kernelPhase is the epoch barrier's serial half: every slot that
// parked wanting kernel work runs it now, one CPU at a time in CPU-id
// order, on the clock the user phase's segments have joined.
func (k *Kernel) kernelPhase() {
	for _, c := range k.cpus {
		if c.slot == nil || c.pend != pendKernel {
			continue
		}
		p := c.slot
		k.M.SetCurrentCPU(c.id)
		k.cur = p
		k.M.Clock.SetContext(int32(p.PID), 0)
		start := k.M.Clock.Cycles()
		p.runCh <- struct{}{}
		<-p.yldCh
		k.cur = nil
		k.M.Clock.SetContext(0, 0)
		c.busy += k.M.Clock.Cycles() - start
		switch p.parkWhy {
		case parkUserResume:
			c.pend = pendUser
		case parkEnd:
			p.inflight = false
			c.slot = nil
			c.pend = pendNone
		default:
			panic(fmt.Sprintf("kernel: pid %d parked %d out of a kernel segment", p.PID, p.parkWhy))
		}
	}
}
