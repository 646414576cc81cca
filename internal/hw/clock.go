// Package hw models the hardware substrate that the Virtual Ghost
// reproduction runs on: physical memory and frames, a 4-level MMU with a
// TLB, a CPU with a register file and privilege levels, IST-style trap
// handling, an IOMMU and DMA engine, a TPM, and simple disk/NIC/console
// devices. Everything is deterministic and driven by a virtual cycle
// clock so that experiments are reproducible.
//
// The paper's prototype ran on real x86-64 hardware; this package is the
// synthetic equivalent (see DESIGN.md §2). The structures the security
// checks care about — page-table entries, physical frames, saved
// register state, IOMMU tables — are modelled faithfully; timing is
// modelled by the cost constants in this file.
package hw

// Frequency is the nominal clock rate used to convert virtual cycles to
// seconds. It matches the paper's testbed (Intel i7-3770 at 3.4 GHz) so
// that native-column latencies land in the same order of magnitude as
// Table 2 of the paper.
const Frequency = 3.4e9 // cycles per second

// Cost constants: the single source of truth for how many virtual cycles
// each primitive event charges. The native latencies of Table 2 emerge
// from counts of these events along each kernel path; the Virtual Ghost
// latencies then emerge from the *additional* events its instrumentation
// and run-time checks introduce (mask ops, CFI checks, Interrupt Context
// save + register zeroing, MMU check walks). No ratio from the paper is
// hard-coded anywhere.
const (
	// CostMemAccess is charged for every load or store performed by
	// kernel or user code against simulated memory.
	CostMemAccess = 4
	// CostMaskCheck is charged by the sandboxing instrumentation for
	// the compare+or bit-masking sequence guarding one memory access.
	CostMaskCheck = 14
	// CostCFICheck is charged for one CFI label check (on a return or
	// an indirect call).
	CostCFICheck = 8
	// CostCFILabel is charged for executing a CFI label landing pad.
	CostCFILabel = 1
	// CostVerifyPerOp is charged per IR instruction by the static
	// admission checker that the translator runs over instrumented
	// output (a linear dataflow scan, amortized at translation/module-
	// load time, never on hot paths).
	CostVerifyPerOp = 3
	// CostALU is charged for one arithmetic/logic IR instruction.
	CostALU = 1
	// CostBranch is charged for a direct branch.
	CostBranch = 1
	// CostCall is charged for a direct call or return (base cost; CFI
	// checks are charged separately).
	CostCall = 4
	// CostTrapEntry is charged for the hardware part of a trap or
	// syscall entry (mode switch, IST stack switch).
	CostTrapEntry = 120
	// CostTrapExit is charged for the return-from-trap path.
	CostTrapExit = 100
	// CostICSave is charged by the SVA VM for copying the Interrupt
	// Context into VM internal memory (Virtual Ghost configs only).
	CostICSave = 420
	// CostICZero is charged for zeroing general-purpose registers
	// after the Interrupt Context is saved (Virtual Ghost only).
	CostICZero = 60
	// CostPTWalk is charged for one 4-level page-table walk on a TLB
	// miss.
	CostPTWalk = 60
	// CostTLBHit is charged for a TLB hit.
	CostTLBHit = 1
	// CostTLBFlush is charged for a full TLB flush (address-space
	// switch).
	CostTLBFlush = 80
	// CostMMUCheckPerPage is charged by the SVA VM for validating one
	// page-table update against the ghost/code/VM-memory constraints
	// (Virtual Ghost only).
	CostMMUCheckPerPage = 150
	// CostPageZero is charged for zeroing a 4 KiB frame.
	CostPageZero = 512
	// CostPageCrypt is charged for encrypting or decrypting one 4 KiB
	// page (used by the shadowing baseline on every OS access to an
	// application page, and by Virtual Ghost only for swap).
	CostPageCrypt = 9000
	// CostPageHash is charged for hashing one 4 KiB page (shadowing
	// baseline integrity checks, Virtual Ghost swap MACs).
	CostPageHash = 3500
	// CostContextSwitch is charged for a kernel context switch
	// (register save/restore, runqueue work), excluding TLB effects.
	CostContextSwitch = 700
	// CostIPISend is charged on the sending CPU for one inter-processor
	// interrupt: APIC programming plus the wait for the remote
	// acknowledgement (TLB shootdowns are synchronous).
	CostIPISend = 700
	// CostIPIDeliver is charged for the remote side of an IPI: the
	// interrupt entry, the handler (e.g. the invlpg loop of a TLB
	// shootdown), and the acknowledgement store.
	CostIPIDeliver = 500
	// CostBcopyPerByte is charged per byte for block copies
	// (copyin/copyout, memcpy) in addition to the per-call access
	// charge. Block copies charge one mask check per call, not per
	// byte, mirroring the prototype's memcpy instrumentation.
	CostBcopyPerByte = 1 // cycles per 8 bytes are charged as /8
	// CostCryptPerByte is charged per byte of application-level
	// encryption or decryption (AES-GCM in the ghosting libc).
	CostCryptPerByte = 2
)

// Clock is the virtual cycle counter for one machine, plus the tagged
// cost ledger that attributes every cycle to the mechanism that charged
// it. All durations in experiments are differences of Clock readings.
//
// Invariant: the per-tag ledger is an exact partition of the total —
// every path that advances cycles also credits exactly one tag, so
// Ledger().Total() == Cycles() outside a user phase. The tagging
// refactor changed only *where* cycles are recorded, never *how many*:
// totals are bit-identical to the pre-tag accounting (pinned by
// golden_cycles.json).
//
// A charge writes one ledger: the selected CPU's. The machine-wide
// ledger is summed from the per-CPU ledgers when Ledger reads it. A
// Clock must not be copied, because cur may point into it.
type Clock struct {
	cycles uint64
	// cur is the ledger charges land in: the selected CPU's entry in
	// perCPU, or base while perCPU is nil. retarget keeps it current.
	cur *Ledger
	// fast reports that Charge may take its inlined path: cur is valid,
	// no tracer is attached and no user phase is open. The zero value
	// is false, so a bare Clock{}'s first charge takes the slow path,
	// which sets cur.
	fast bool
	// perCPU attributes charges to the CPU selected by SetCPU. Sized by
	// EnsureCPUs at machine construction; nil on bare clocks (tests).
	perCPU []Ledger
	// base holds the charges made before EnsureCPUs sized perCPU. It
	// stays zero on every clock a Machine builds, and after a snapshot
	// restore it holds the image's machine-wide ledger less its per-CPU
	// ledgers.
	base Ledger
	cpu  int
	// Trace context: host-side bookkeeping stamped onto trace events.
	// Setting it costs no virtual cycles.
	pid int32
	ctx uint32
	// tracer receives one event per charge when attached. Attaching
	// one clears fast, so traced charges take the slow path; a detached
	// tracer costs the charge path nothing beyond the fast flag test.
	tracer *Tracer

	// User-phase state for the epoch scheduler (DESIGN.md §14). While
	// a phase is open, cycles stays at the epoch base, so every CPU's
	// user segment counts from it: a segment never sees the cycles of
	// the segments that ran before it in the phase, nor its own. A
	// charge lands on the segment CPU's ledger and on seg; EndSegment
	// moves seg into phaseSum, which joins cycles at EndUserPhase.
	phase    bool
	seg      uint64 // cycles of the open segment
	phaseSum uint64 // cycles of the phase's closed segments
	// outer is the selected CPU and trace context from before the
	// phase; EndUserPhase restores them.
	outer struct {
		cpu int
		pid int32
		ctx uint32
	}

	// idleSources are the kernels sharing this clock. When every source
	// is idle (no runnable work anywhere) but timers are armed, the
	// schedulers skip virtual time forward to the earliest expiry
	// instead of busy-waiting — the simulation analogue of the CPU
	// halting until the next timer interrupt. Host-side wiring, not
	// architectural state (re-registered at boot, never serialized).
	idleSources []IdleSource
}

// IdleSource is one scheduler's view for the idle-time protocol:
// the earliest virtual-time timer it has armed (hasTimer=false when
// none) and whether it has runnable work right now (a runnable process
// or undelivered network input).
type IdleSource interface {
	IdleInfo() (next uint64, hasTimer, runnable bool)
}

// RegisterIdleSource adds a scheduler to the clock's idle protocol.
func (c *Clock) RegisterIdleSource(s IdleSource) {
	c.idleSources = append(c.idleSources, s)
}

// IdleTarget returns the earliest armed timer expiry across every
// registered source, but only if no source has runnable work — a
// runnable process anywhere on the shared clock means virtual time
// must not skip. ok=false when skipping is not allowed or no timer is
// armed.
func (c *Clock) IdleTarget() (uint64, bool) {
	var best uint64
	found := false
	for _, s := range c.idleSources {
		next, has, runnable := s.IdleInfo()
		if runnable {
			return 0, false
		}
		if has && (!found || next < best) {
			best, found = next, true
		}
	}
	return best, found
}

// Cycles returns the current virtual time in cycles. During a user
// phase it reads the epoch base.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Charge advances the clock by n cycles attributed to tag. This is the
// single entry point through which all simulated time passes.
//
// The common case, no tracer and no user phase, is two adds and
// inlines into every caller; keep it within the inliner's budget (CI
// checks that `go build -gcflags=-m=2 ./internal/hw` still reports
// `can inline (*Clock).Charge`). Everything else is chargeSlow.
func (c *Clock) Charge(tag Tag, n uint64) {
	if c.fast {
		c.cycles += n
		c.cur[tag] += n
		return
	}
	c.chargeSlow(tag, n)
}

// chargeSlow is Charge when fast is off: a zero-value clock's first
// charge, an attached tracer, or an open user phase. In a phase the
// charge belongs to the open segment: it starts at the epoch base plus
// the segment's cycles so far, and the tracer holds its event until
// the phase ends.
func (c *Clock) chargeSlow(tag Tag, n uint64) {
	if c.cur == nil {
		c.retarget()
	}
	start := c.cycles
	if c.phase {
		start += c.seg
		c.seg += n
	} else {
		c.cycles += n
	}
	c.cur[tag] += n
	if c.tracer != nil && n > 0 {
		ev := TraceEvent{
			Tag: tag, CPU: int32(c.cpu), PID: c.pid, Ctx: c.ctx,
			Start: start, Dur: n,
		}
		if c.phase {
			c.tracer.hold(ev)
		} else {
			c.tracer.record(ev)
		}
	}
}

// retarget points cur at the selected CPU's ledger (base while perCPU
// is nil) and recomputes fast. Every change to perCPU, cpu, tracer or
// phase calls it.
func (c *Clock) retarget() {
	if c.cpu < len(c.perCPU) {
		c.cur = &c.perCPU[c.cpu]
	} else {
		c.cur = &c.base
	}
	c.fast = c.tracer == nil && !c.phase
}

// BeginUserPhase opens an epoch's user phase. Until EndUserPhase,
// Cycles keeps reading the epoch base and every charge belongs to the
// segment BeginSegment opened. The epoch scheduler calls it in serial
// context, between the schedule and kernel phases.
func (c *Clock) BeginUserPhase() {
	if c.phase {
		panic("hw: BeginUserPhase while a user phase is open")
	}
	c.outer.cpu, c.outer.pid, c.outer.ctx = c.cpu, c.pid, c.ctx
	c.phase = true
	c.retarget()
}

// BeginSegment starts CPU cpu's user segment in the open phase: its
// charges land on cpu's ledger and its trace events carry pid and
// context word 0, timed from the epoch base. Costs no virtual cycles.
func (c *Clock) BeginSegment(cpu int, pid int32) {
	if !c.phase {
		panic("hw: BeginSegment outside a user phase")
	}
	c.SetCPU(cpu)
	c.pid, c.ctx = pid, 0
}

// EndSegment closes the open segment and returns its cycles, which
// join the clock at EndUserPhase.
func (c *Clock) EndSegment() uint64 {
	n := c.seg
	c.phaseSum += n
	c.seg = 0
	return n
}

// EndUserPhase closes the phase: its segments' cycles join the clock,
// the tracer records the events it held in (Start, CPU) order, and the
// selected CPU and trace context return to what they were before the
// phase.
func (c *Clock) EndUserPhase() {
	if !c.phase {
		panic("hw: EndUserPhase without BeginUserPhase")
	}
	c.phase = false
	c.cycles += c.phaseSum + c.seg
	c.phaseSum, c.seg = 0, 0
	c.cpu, c.pid, c.ctx = c.outer.cpu, c.outer.pid, c.outer.ctx
	c.retarget()
	if c.tracer != nil {
		c.tracer.release()
	}
}

// ChargeBytes charges the per-byte cost for an n-byte block operation at
// the given per-8-byte cost, attributed to tag. Charging is per 8-byte
// word, rounded up — a 1-byte copy costs one word (the rounding rule is
// pinned by TestAdvanceBytesRounding).
func (c *Clock) ChargeBytes(tag Tag, n int, costPer8 uint64) {
	words := uint64(n+7) / 8
	c.Charge(tag, words*costPer8)
}

// Ledger returns a snapshot of the machine-wide per-tag cycle account:
// base plus every CPU's ledger, summed on each call. Only measurement
// points read it; the charge path never does.
func (c *Clock) Ledger() Ledger {
	l := c.base
	for i := range c.perCPU {
		for t, v := range c.perCPU[i] {
			l[t] += v
		}
	}
	return l
}

// CPULedger returns a snapshot of the per-tag account for one CPU, or a
// zero ledger if per-CPU tracking is not enabled or the CPU is out of
// range.
func (c *Clock) CPULedger(cpu int) Ledger {
	if cpu < 0 || cpu >= len(c.perCPU) {
		return Ledger{}
	}
	return c.perCPU[cpu]
}

// EnsureCPUs enables per-CPU attribution for at least n CPUs. Machines
// call this at construction; on a shared clock (networked pairs) the
// slice grows to the largest machine.
func (c *Clock) EnsureCPUs(n int) {
	if n > len(c.perCPU) {
		grown := make([]Ledger, n)
		copy(grown, c.perCPU)
		c.perCPU = grown
		c.retarget()
	}
}

// SetCPU selects the CPU subsequent charges are attributed to. Costs no
// virtual cycles.
func (c *Clock) SetCPU(cpu int) {
	if cpu >= 0 {
		c.EnsureCPUs(cpu + 1)
		c.cpu = cpu
		c.retarget()
	}
}

// SetContext stamps subsequent trace events with a process id and a
// context word (by convention the in-flight syscall number, or 0).
// Host-side bookkeeping only: costs no virtual cycles.
func (c *Clock) SetContext(pid int32, ctx uint32) {
	c.pid, c.ctx = pid, ctx
}

// Context returns the current trace context, for save/restore around
// nested dispatch.
func (c *Clock) Context() (pid int32, ctx uint32) { return c.pid, c.ctx }

// AttachTracer directs one event per charge into t. Pass nil to detach;
// a detached clock charges on the inlined fast path again. A tracer
// attaches and detaches between user phases, never inside one, so no
// phase's held events change hands.
func (c *Clock) AttachTracer(t *Tracer) {
	if c.phase {
		panic("hw: AttachTracer during a user phase")
	}
	c.tracer = t
	c.retarget()
}

// TracerAttached reports whether a tracer is receiving events.
func (c *Clock) TracerAttached() bool { return c.tracer != nil }

// Seconds converts a cycle count to seconds at the nominal frequency.
func Seconds(cycles uint64) float64 { return float64(cycles) / Frequency }

// Micros converts a cycle count to microseconds.
func Micros(cycles uint64) float64 { return Seconds(cycles) * 1e6 }
