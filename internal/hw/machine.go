package hw

import "fmt"

// MachineConfig sizes a simulated machine.
type MachineConfig struct {
	// MemFrames is the number of physical frames (default 16384 = 64 MiB).
	MemFrames int
	// DiskBlocks is the disk capacity in 4 KiB blocks (default 32768 = 128 MiB).
	DiskBlocks int
	// Seed seeds the hardware RNG (and hence the TPM key).
	Seed uint64
	// NumCPUs is the number of simulated CPUs (default 1). All CPUs
	// share physical memory and devices; each has its own register
	// file, TLB, and interrupt line. Execution stays deterministic: the
	// kernel's epoch scheduler runs the CPUs one at a time in CPU-id
	// order (DESIGN.md §14).
	NumCPUs int
}

// DefaultConfig returns the standard experiment machine.
func DefaultConfig() MachineConfig {
	return MachineConfig{MemFrames: 16384, DiskBlocks: 32768, Seed: 0x5eed}
}

// IPIKind identifies the purpose of an inter-processor interrupt.
type IPIKind uint8

const (
	// IPIShootdown asks the target CPU to invalidate TLB entries for a
	// frame (Arg) and acknowledge. ShootdownFrame sends these
	// synchronously itself; the kind exists so drained interrupt logs
	// and counters can tell the traffic classes apart.
	IPIShootdown IPIKind = iota
	// IPIResched asks the target CPU to re-run its scheduler (used for
	// cross-CPU signal delivery and wakeups). Arg carries the PID being
	// woken, for diagnostics.
	IPIResched
)

func (k IPIKind) String() string {
	switch k {
	case IPIShootdown:
		return "shootdown"
	case IPIResched:
		return "resched"
	}
	return fmt.Sprintf("IPIKind(%d)", uint8(k))
}

// IPI is one pending inter-processor interrupt on a CPU's line.
type IPI struct {
	From int
	Kind IPIKind
	Arg  uint64
}

// Machine bundles one complete simulated computer. Experiments build two
// of these (server + client) and connect their NICs.
//
// CPU and MMU name the boot CPU (CPUs[0]) and its MMU; single-CPU code
// keeps using them unchanged. Multi-CPU code indexes CPUs or asks for
// Cur(), the CPU the scheduler most recently selected with
// SetCurrentCPU.
type Machine struct {
	Clock   *Clock
	Mem     *Memory
	MMU     *MMU
	CPU     *CPU
	CPUs    []*CPU
	Ports   *PortBus
	IOMMU   *IOMMU
	DMA     *DMAEngine
	Disk    *Disk
	NIC     *NIC
	Console *Console
	RNG     *RNG
	TPM     *TPM
	Timer   *Timer

	curCPU int
	// tlbIncoherent disables both the shootdown broadcast and the
	// stale-translation guard. Test-only: it models the buggy/hostile
	// configuration the stale-remote-TLB attack needs, proving the
	// protocol is load-bearing.
	tlbIncoherent bool

	ipisSent      uint64
	ipisDelivered uint64
	shootdowns    uint64
}

// NewMachine assembles a machine from the configuration.
func NewMachine(cfg MachineConfig) *Machine {
	return NewMachineWith(cfg, &Clock{})
}

// NewMachineWith assembles a machine ticking an existing clock, so that
// several machines (e.g. the server and client of a network experiment)
// share one global timeline.
func NewMachineWith(cfg MachineConfig, clock *Clock) *Machine {
	if cfg.MemFrames == 0 {
		cfg.MemFrames = 16384
	}
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 32768
	}
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 1
	}
	mem := NewMemory(cfg.MemFrames, clock)
	mmu := NewMMU(mem, clock)
	cpu := NewCPU(mmu, clock)
	ports := NewPortBus()
	iommu := NewIOMMU()
	ports.Register(IOMMUPortFrame, 2, iommu)
	rng := NewRNG(cfg.Seed)
	m := &Machine{
		Clock:   clock,
		Mem:     mem,
		MMU:     mmu,
		CPU:     cpu,
		CPUs:    make([]*CPU, cfg.NumCPUs),
		Ports:   ports,
		IOMMU:   iommu,
		DMA:     NewDMAEngine(mem, iommu, clock),
		Disk:    NewDisk(clock, cfg.DiskBlocks),
		NIC:     NewNIC(clock),
		Console: &Console{},
		RNG:     rng,
		TPM:     NewTPM(rng),
		Timer:   NewTimer(clock, 10_000_000), // ~3 ms quantum
	}
	m.CPUs[0] = cpu
	for i := 1; i < cfg.NumCPUs; i++ {
		u := NewMMU(mem, clock)
		u.cpu = i
		c := NewCPU(u, clock)
		c.ID = i
		m.CPUs[i] = c
	}
	mem.SetStaleCheck(m.staleTranslationCheck)
	clock.EnsureCPUs(cfg.NumCPUs)
	return m
}

// NumCPUs returns the number of simulated CPUs.
func (m *Machine) NumCPUs() int { return len(m.CPUs) }

// CurCPU returns the index of the currently selected CPU.
func (m *Machine) CurCPU() int { return m.curCPU }

// SetCurrentCPU selects which CPU subsequent machine-level operations
// (Cur, CurMMU) refer to. The kernel scheduler calls this as it steps
// CPUs round-robin; it is pure host bookkeeping and charges nothing.
func (m *Machine) SetCurrentCPU(id int) {
	if id < 0 || id >= len(m.CPUs) {
		panic(fmt.Sprintf("hw: SetCurrentCPU(%d) with %d CPUs", id, len(m.CPUs)))
	}
	m.curCPU = id
	m.Clock.SetCPU(id)
}

// Cur returns the currently selected CPU (the boot CPU by default).
func (m *Machine) Cur() *CPU { return m.CPUs[m.curCPU] }

// CurMMU returns the currently selected CPU's MMU.
func (m *Machine) CurMMU() *MMU { return m.CPUs[m.curCPU].MMU }

// SetTLBCoherence enables or disables the TLB-shootdown protocol AND
// the stale-translation guard together. Shipping configurations never
// call this; the stale-remote-TLB attack vector disables coherence to
// demonstrate the leak the protocol prevents.
func (m *Machine) SetTLBCoherence(on bool) { m.tlbIncoherent = !on }

// TLBCoherent reports whether the shootdown protocol is active.
func (m *Machine) TLBCoherent() bool { return !m.tlbIncoherent }

// SendIPI queues an inter-processor interrupt on CPU to's line and
// charges the sender's APIC programming cost. Self-IPIs are dropped
// (the caller is already running there).
func (m *Machine) SendIPI(to int, kind IPIKind, arg uint64) {
	if to < 0 || to >= len(m.CPUs) || to == m.curCPU {
		return
	}
	m.Clock.Charge(TagIPI, CostIPISend)
	m.ipisSent++
	c := m.CPUs[to]
	c.ipi = append(c.ipi, IPI{From: m.curCPU, Kind: kind, Arg: arg})
}

// DrainIPIs delivers (and discards) all interrupts pending on CPU id's
// line, charging the delivery cost for each, and returns how many were
// delivered. The scheduler calls it when it next steps that CPU: the
// interrupts' only architectural effect in this model is to force a
// trip through the scheduler, which is exactly what draining at
// schedule time provides.
func (m *Machine) DrainIPIs(id int) int {
	c := m.CPUs[id]
	n := len(c.ipi)
	if n == 0 {
		return 0
	}
	c.ipi = c.ipi[:0]
	for i := 0; i < n; i++ {
		m.Clock.Charge(TagIPI, CostIPIDeliver)
		m.ipisDelivered++
	}
	return n
}

// PendingIPIs returns how many interrupts are queued on CPU id's line.
func (m *Machine) PendingIPIs(id int) int { return len(m.CPUs[id].ipi) }

// ShootdownFrame runs the synchronous TLB-shootdown protocol for frame
// f: every remote CPU receives a shootdown IPI, flushes its TLB entries
// for f, and acknowledges before this returns. The SVA layer must call
// this before a ghost or page-table frame is freed or retyped, so no
// CPU can retain a stale translation to memory that is about to change
// owners (paper §4.2). Returns the number of remote CPUs flushed.
//
// Single-CPU machines (and machines with coherence disabled for the
// attack demonstration) return 0 without charging anything, which keeps
// every NumCPUs=1 cycle count bit-identical to the pre-SMP model.
func (m *Machine) ShootdownFrame(f Frame) int {
	if len(m.CPUs) == 1 || m.tlbIncoherent {
		return 0
	}
	acks := 0
	for _, c := range m.CPUs {
		if c.ID == m.curCPU {
			continue
		}
		// Synchronous send + remote handler + ack: the sender spins
		// until the remote invlpg loop completes, so both sides' costs
		// land on the shared timeline here.
		m.Clock.Charge(TagIPI, CostIPISend+CostIPIDeliver)
		m.ipisSent++
		m.ipisDelivered++
		c.MMU.FlushFrame(f)
		acks++
	}
	m.shootdowns++
	return acks
}

// staleTranslationCheck is the run-time guard the Memory layer consults
// before a ghost or page-table frame is freed or retyped: if any
// *remote* CPU's TLB still holds a translation to the frame, the
// operation is refused — the caller skipped the shootdown protocol.
// (The initiating CPU's own TLB is its invlpg responsibility, charged
// in rawUnmap.) Host-only bookkeeping (no cycle charge); on a correct
// tree it never fires.
func (m *Machine) staleTranslationCheck(f Frame) error {
	if len(m.CPUs) == 1 || m.tlbIncoherent {
		return nil
	}
	for _, c := range m.CPUs {
		if c.ID == m.curCPU {
			continue
		}
		if c.MMU.HoldsFrame(f) {
			return fmt.Errorf("hw: cpu%d TLB still holds a translation to frame %d (missing shootdown)", c.ID, f)
		}
	}
	return nil
}

// IPICounts returns (sent, delivered, shootdowns) totals for the
// machine, for experiment reporting.
func (m *Machine) IPICounts() (sent, delivered, shootdowns uint64) {
	return m.ipisSent, m.ipisDelivered, m.shootdowns
}
