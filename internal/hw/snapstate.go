package hw

import (
	"fmt"
	"sort"
)

// This file is the hardware half of the snapshot subsystem
// (internal/snapshot, DESIGN.md §18): a complete, serializable capture
// of one machine's architectural state. The split is deliberate — this
// package knows every private field that constitutes machine state, so
// the capture/apply logic lives here, while the snapshot package owns
// the image format, checksumming and sealing.
//
// Host-side acceleration structures are *not* state: the walk cache,
// tracer, tap hooks and device handler registrations are rebuilt or
// cold-started on restore. A restore replaces every page, so it
// advances the page-table generation and every cached walk goes stale;
// that cold start is invisible to the virtual clock, because callers
// charge as if every lookup walked the tables.

// MachineSnap is the full serializable hardware state of one machine.
// Field order and JSON names are part of the image format; changing
// them requires an image version bump (internal/snapshot).
type MachineSnap struct {
	NumCPUs    int `json:"num_cpus"`
	MemFrames  int `json:"mem_frames"`
	DiskBlocks int `json:"disk_blocks"`
	CurCPU     int `json:"cur_cpu"`

	Clock ClockSnap `json:"clock"`
	Mem   MemSnap   `json:"mem"`
	CPUs  []CPUSnap `json:"cpus"`
	Disk  DiskSnap  `json:"disk"`
	NIC   NICSnap   `json:"nic"`
	IOMMU IOMMUSnap `json:"iommu"`

	Console   []string `json:"console,omitempty"`
	RNGState  uint64   `json:"rng_state"`
	TimerNext uint64   `json:"timer_next"`

	IPIsSent      uint64 `json:"ipis_sent"`
	IPIsDelivered uint64 `json:"ipis_delivered"`
	Shootdowns    uint64 `json:"shootdowns"`
	TLBIncoherent bool   `json:"tlb_incoherent,omitempty"`
}

// ClockSnap is the virtual timeline: total cycles plus the tag ledgers
// that partition them.
type ClockSnap struct {
	Cycles uint64   `json:"cycles"`
	CPU    int      `json:"cpu"`
	Ledger Ledger   `json:"ledger"`
	PerCPU []Ledger `json:"per_cpu,omitempty"`
}

// MemSnap is physical memory: per-frame metadata, the free list in its
// exact LIFO order (allocation order is architectural — frame numbers
// end up in page tables), and the contents of every non-zero frame.
type MemSnap struct {
	FType []byte            `json:"ftype"`
	Refs  []uint16          `json:"refs"`
	Free  []uint64          `json:"free"`
	Pages map[uint64][]byte `json:"pages"`
}

// CPUSnap is one hardware thread: registers, IST configuration, the
// pending interrupt line, and its MMU's root + TLB contents.
type CPUSnap struct {
	Regs      RegFile        `json:"regs"`
	ISTTarget uint64         `json:"ist_target"`
	IPIs      []IPI          `json:"ipis,omitempty"`
	MMURoot   uint64         `json:"mmu_root"`
	TLB       []TLBSnapEntry `json:"tlb,omitempty"`
}

// TLBSnapEntry is one cached translation, sorted by page for a stable
// encoding.
type TLBSnapEntry struct {
	Page  uint64 `json:"page"`
	Frame uint64 `json:"frame"`
	Flags uint64 `json:"flags"`
}

// DiskSnap is the block device: contents of every written block plus
// the request counters and any armed failure injection.
type DiskSnap struct {
	Blocks   map[int][]byte `json:"blocks"`
	Reads    uint64         `json:"reads"`
	Writes   uint64         `json:"writes"`
	FailNext int            `json:"fail_next,omitempty"`
}

// NICSnap is the network interface: the undelivered receive queue in
// global arrival order (the per-port split is rebuilt on apply) and
// the cumulative counters.
type NICSnap struct {
	RX             []Packet       `json:"rx,omitempty"`
	BytesSent      uint64         `json:"bytes_sent"`
	BytesReceived  uint64         `json:"bytes_received"`
	PacketsDropped uint64         `json:"packets_dropped"`
	PortDrops      []PortDropSnap `json:"port_drops,omitempty"`
}

// PortDropSnap is one port's cumulative queue-overflow drop count,
// sorted by port for a stable encoding.
type PortDropSnap struct {
	Port  uint16 `json:"port"`
	Drops uint64 `json:"drops"`
}

// IOMMUSnap is the DMA-visibility table (sorted) and the command latch.
type IOMMUSnap struct {
	Allowed    []uint64 `json:"allowed,omitempty"`
	LatchFrame uint64   `json:"latch_frame"`
}

// CaptureSnap deep-copies the machine's architectural state. The
// machine must be between epochs (no open clock shard phase); captured
// buffers are private to the snap, so the machine may keep running.
func (m *Machine) CaptureSnap() (*MachineSnap, error) {
	if m.Clock.Sharding() {
		return nil, fmt.Errorf("hw: snapshot capture during an open shard phase (capture only at epoch barriers)")
	}
	s := &MachineSnap{
		NumCPUs:       len(m.CPUs),
		MemFrames:     m.Mem.nframes,
		DiskBlocks:    len(m.Disk.blocks),
		CurCPU:        m.curCPU,
		Clock:         m.Clock.captureSnap(),
		Mem:           m.Mem.captureSnap(),
		CPUs:          make([]CPUSnap, len(m.CPUs)),
		Disk:          m.Disk.captureSnap(),
		NIC:           m.NIC.captureSnap(),
		IOMMU:         m.IOMMU.captureSnap(),
		Console:       m.Console.Lines(),
		RNGState:      m.RNG.state,
		TimerNext:     m.Timer.next,
		IPIsSent:      m.ipisSent,
		IPIsDelivered: m.ipisDelivered,
		Shootdowns:    m.shootdowns,
		TLBIncoherent: m.tlbIncoherent,
	}
	for i, c := range m.CPUs {
		s.CPUs[i] = c.captureSnap()
	}
	return s, nil
}

// ApplySnap overwrites the machine's architectural state with the
// snap's. The machine must have the same geometry (frames, blocks,
// CPUs) — restore targets are booted from the same configuration. With
// sharePages, frame and disk contents alias the snap's buffers
// copy-on-write, so N machines can be forked from one decoded image
// without copying memory; the snap must then stay immutable.
func (m *Machine) ApplySnap(s *MachineSnap, sharePages bool) error {
	if m.Clock.Sharding() {
		return fmt.Errorf("hw: snapshot apply during an open shard phase")
	}
	if len(m.CPUs) != s.NumCPUs || m.Mem.nframes != s.MemFrames || len(m.Disk.blocks) != s.DiskBlocks {
		return fmt.Errorf("hw: snapshot geometry mismatch: image %d cpus/%d frames/%d blocks, machine %d/%d/%d",
			s.NumCPUs, s.MemFrames, s.DiskBlocks, len(m.CPUs), m.Mem.nframes, len(m.Disk.blocks))
	}
	m.Clock.applySnap(&s.Clock)
	m.Mem.applySnap(&s.Mem, sharePages)
	for i, c := range m.CPUs {
		c.applySnap(&s.CPUs[i])
	}
	m.Disk.applySnap(&s.Disk, sharePages)
	m.NIC.applySnap(&s.NIC)
	m.IOMMU.applySnap(&s.IOMMU)
	m.Console.lines = append([]string(nil), s.Console...)
	m.RNG.state = s.RNGState
	m.Timer.next = s.TimerNext
	m.ipisSent = s.IPIsSent
	m.ipisDelivered = s.IPIsDelivered
	m.shootdowns = s.Shootdowns
	m.tlbIncoherent = s.TLBIncoherent
	m.SetCurrentCPU(s.CurCPU)
	return nil
}

func (c *Clock) captureSnap() ClockSnap {
	s := ClockSnap{Cycles: c.cycles, CPU: c.cpu, Ledger: c.Ledger()}
	if c.perCPU != nil {
		s.PerCPU = append([]Ledger(nil), c.perCPU...)
	}
	return s
}

func (c *Clock) applySnap(s *ClockSnap) {
	c.cycles = s.Cycles
	c.base = s.Ledger
	c.EnsureCPUs(len(s.PerCPU))
	for i := range c.perCPU {
		if i < len(s.PerCPU) {
			c.perCPU[i] = s.PerCPU[i]
			c.base = c.base.Sub(s.PerCPU[i])
		} else {
			c.perCPU[i] = Ledger{}
		}
	}
	c.SetCPU(s.CPU)
}

func (m *Memory) captureSnap() MemSnap {
	s := MemSnap{
		FType: make([]byte, m.nframes),
		Refs:  append([]uint16(nil), m.refs...),
		Free:  make([]uint64, len(m.free)),
		Pages: make(map[uint64][]byte),
	}
	for i, t := range m.ftype {
		s.FType[i] = byte(t)
	}
	for i, f := range m.free {
		s.Free[i] = uint64(f)
	}
	for f, pg := range m.pages {
		if pg == nil {
			continue
		}
		zero := true
		for _, b := range pg {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		s.Pages[uint64(f)] = append([]byte(nil), pg[:]...)
	}
	return s
}

func (m *Memory) applySnap(s *MemSnap, sharePages bool) {
	m.ptGen++ // every page, page tables included, is replaced
	for i := range m.ftype {
		m.ftype[i] = FrameType(s.FType[i])
	}
	copy(m.refs, s.Refs)
	m.free = m.free[:0]
	for _, f := range s.Free {
		m.free = append(m.free, Frame(f))
	}
	clear(m.pages)
	if sharePages {
		if m.shared == nil {
			m.shared = make([]bool, m.nframes)
		} else {
			clear(m.shared)
		}
	} else if m.shared != nil {
		clear(m.shared)
	}
	for f, b := range s.Pages {
		if len(b) != PageSize {
			continue
		}
		if sharePages {
			m.pages[f] = (*[PageSize]byte)(b)
			m.shared[f] = true
		} else {
			pg := new([PageSize]byte)
			copy(pg[:], b)
			m.pages[f] = pg
		}
	}
}

func (c *CPU) captureSnap() CPUSnap {
	s := CPUSnap{
		Regs:      c.Regs,
		ISTTarget: c.ISTTarget,
		IPIs:      append([]IPI(nil), c.ipi...),
		MMURoot:   uint64(c.MMU.root),
	}
	for v, te := range c.MMU.tlb {
		s.TLB = append(s.TLB, TLBSnapEntry{Page: uint64(v), Frame: uint64(te.frame), Flags: te.flags})
	}
	sort.Slice(s.TLB, func(i, j int) bool { return s.TLB[i].Page < s.TLB[j].Page })
	return s
}

func (c *CPU) applySnap(s *CPUSnap) {
	c.Regs = s.Regs
	c.ISTTarget = s.ISTTarget
	c.ipi = append(c.ipi[:0], s.IPIs...)
	c.MMU.root = Frame(s.MMURoot)
	c.MMU.tlb = make(map[Virt]tlbEntry, len(s.TLB))
	for _, e := range s.TLB {
		c.MMU.tlb[Virt(e.Page)] = tlbEntry{frame: Frame(e.Frame), flags: e.Flags}
	}
}

func (d *Disk) captureSnap() DiskSnap {
	s := DiskSnap{Blocks: make(map[int][]byte), Reads: d.reads, Writes: d.writes, FailNext: d.failNext}
	for i, b := range d.blocks {
		if b != nil {
			s.Blocks[i] = append([]byte(nil), b...)
		}
	}
	return s
}

func (d *Disk) applySnap(s *DiskSnap, shareBlocks bool) {
	clear(d.blocks)
	for i, b := range s.Blocks {
		if i < 0 || i >= len(d.blocks) {
			continue
		}
		if shareBlocks {
			// WriteBlock/PokeBlock replace the block slice wholesale and
			// ReadBlock/PeekBlock copy out, so aliasing the image's block
			// is safe: the image bytes are never mutated in place.
			d.blocks[i] = b
		} else {
			d.blocks[i] = append([]byte(nil), b...)
		}
	}
	d.reads = s.Reads
	d.writes = s.Writes
	d.failNext = s.FailNext
}

func (n *NIC) captureSnap() NICSnap {
	s := NICSnap{
		BytesSent:      n.bytesSent,
		BytesReceived:  n.bytesReceived,
		PacketsDropped: n.packetsDropped,
	}
	// Snoop returns copies in global arrival order — exactly the wire
	// state the image must preserve.
	s.RX = n.Snoop()
	if n.rx != nil {
		for pi, pg := range n.rx.pages {
			if pg == nil {
				continue
			}
			for i := range pg {
				if d := pg[i].drops; d != 0 {
					s.PortDrops = append(s.PortDrops, PortDropSnap{Port: uint16(pi*rxPagePorts + i), Drops: d})
				}
			}
		}
	}
	return s
}

func (n *NIC) applySnap(s *NICSnap) {
	n.rx = nil
	n.rxCount = 0
	n.nextSeq = 0
	// Requeue in arrival order; seq numbers regenerate identically
	// because delivery order is the serialized order.
	for _, p := range s.RX {
		cp := Packet{Port: p.Port, Payload: append([]byte(nil), p.Payload...)}
		n.push(cp.Port, n.portState(cp.Port), rxPacket{pkt: cp, seq: n.nextSeq})
		n.nextSeq++
	}
	n.bytesSent = s.BytesSent
	n.bytesReceived = s.BytesReceived
	n.packetsDropped = s.PacketsDropped
	for _, pd := range s.PortDrops {
		n.portState(pd.Port).drops = pd.Drops
	}
}

func (i *IOMMU) captureSnap() IOMMUSnap {
	s := IOMMUSnap{LatchFrame: uint64(i.latchFrame)}
	for f, ok := range i.allowed {
		if ok {
			s.Allowed = append(s.Allowed, uint64(f))
		}
	}
	sort.Slice(s.Allowed, func(a, b int) bool { return s.Allowed[a] < s.Allowed[b] })
	return s
}

func (i *IOMMU) applySnap(s *IOMMUSnap) {
	clear(i.allowed)
	for _, f := range s.Allowed {
		i.allowed[Frame(f)] = true
	}
	i.latchFrame = Frame(s.LatchFrame)
}
