package hw

import (
	"errors"
	"fmt"
)

// PageSize is the size of a physical frame and of a virtual page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Phys is a physical address.
type Phys uint64

// Virt is a virtual address.
type Virt uint64

// Frame is a physical frame number (Phys >> PageShift).
type Frame uint64

// Addr returns the physical address of the first byte of the frame.
func (f Frame) Addr() Phys { return Phys(f) << PageShift }

// FrameOf returns the frame containing the physical address.
func FrameOf(p Phys) Frame { return Frame(p >> PageShift) }

// PageOf returns the page-aligned base of a virtual address.
func PageOf(v Virt) Virt { return v &^ (PageSize - 1) }

// FrameType records what a physical frame is currently used for. The
// SVA VM's MMU checks are predicated on these types: for example, a
// FrameGhost frame may never appear in a kernel- or user-visible
// mapping, and a FrameCode frame may never be mapped writable.
type FrameType uint8

const (
	// FrameFree is an unallocated frame.
	FrameFree FrameType = iota
	// FrameKernelData holds ordinary kernel data.
	FrameKernelData
	// FrameUserData holds traditional (OS-accessible) user memory.
	FrameUserData
	// FrameGhost holds ghost memory; only the SVA VM may map it.
	FrameGhost
	// FrameSVA holds SVA VM internal memory.
	FrameSVA
	// FrameCode holds translated native code (kernel or application).
	FrameCode
	// FramePageTable holds a declared page-table page; the OS may only
	// modify it through the SVA-OS MMU update operations.
	FramePageTable
	// FrameIO is a memory-mapped I/O frame; the SVA VM refuses to map
	// it for the OS or to declare it a page table. No device here uses
	// one: the IOMMU is programmed through ports.
	FrameIO
)

func (t FrameType) String() string {
	switch t {
	case FrameFree:
		return "free"
	case FrameKernelData:
		return "kernel"
	case FrameUserData:
		return "user"
	case FrameGhost:
		return "ghost"
	case FrameSVA:
		return "sva"
	case FrameCode:
		return "code"
	case FramePageTable:
		return "pagetable"
	case FrameIO:
		return "io"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// ErrOutOfMemory is returned when no free frame is available.
var ErrOutOfMemory = errors.New("hw: out of physical memory")

// ErrBadPhys is returned for accesses outside physical memory.
var ErrBadPhys = errors.New("hw: physical address out of range")

// Memory is the machine's physical memory: per-frame byte storage plus
// per-frame metadata. Frame metadata is the ground truth that the SVA
// VM's run-time checks consult.
//
// Frame contents are allocated lazily on first write: a machine with
// gigabytes of simulated RAM costs the host nothing until frames are
// actually touched, and reads of never-written memory return zeros —
// exactly what a flat pre-zeroed array would hold. This is purely a
// host-side optimisation; nothing about the modeled hardware (or the
// virtual clock) depends on it.
type Memory struct {
	pages   []*[PageSize]byte
	ftype   []FrameType
	refs    []uint16 // mapping reference counts, maintained by the MMU layer
	free    []Frame  // free list (LIFO)
	nframes int
	clock   *Clock
	// shared marks frames whose backing page is aliased into an
	// immutable snapshot image (fork-from-snapshot). The first write to
	// a shared frame copies the page (copy-on-write) so the image — and
	// every sibling machine forked from it — never observes the store.
	// nil on machines that were not restored with page sharing.
	shared []bool
	// ptGen is the page-table generation. It advances whenever a
	// page-table byte may have changed: a physical write to a
	// FramePageTable frame (stores, ZeroFrame, a FrameBytes hand-out), a
	// frame's page-table role starting or ending (SetType, FreeFrame),
	// any MMU.RawWritePTE, and a snapshot restore. A walk an MMU cached
	// serves lookups only while ptGen still has the value it was cached
	// at (MMU.CachedLeaf). It starts at 1, so an empty cache slot
	// (generation 0) never matches.
	ptGen uint64
	// staleCheck, when set, guards FreeFrame and SetType of frames
	// whose old or new type is security-critical (ghost or page-table):
	// the machine refuses the operation while a remote CPU's TLB could
	// still translate to the frame, i.e. the TLB-shootdown protocol was
	// skipped. Registered by Machine on multi-CPU configurations.
	staleCheck func(Frame) error
}

// NewMemory creates physical memory with the given number of frames.
func NewMemory(nframes int, clock *Clock) *Memory {
	m := &Memory{
		pages:   make([]*[PageSize]byte, nframes),
		ftype:   make([]FrameType, nframes),
		refs:    make([]uint16, nframes),
		nframes: nframes,
		clock:   clock,
		ptGen:   1,
	}
	// Push frames so that low frame numbers come off the list first;
	// frame 0 is reserved (never allocated) to keep Phys 0 invalid.
	for f := nframes - 1; f >= 1; f-- {
		m.free = append(m.free, Frame(f))
	}
	return m
}

// SetStaleCheck registers the stale-translation guard consulted before
// ghost/page-table frames are freed or retyped (the machine's TLB
// coherence check).
func (m *Memory) SetStaleCheck(fn func(Frame) error) { m.staleCheck = fn }

// checkStale applies the stale-translation guard when a frame
// transitions into or out of a security-critical type.
func (m *Memory) checkStale(f Frame, types ...FrameType) error {
	if m.staleCheck == nil {
		return nil
	}
	for _, t := range types {
		if t == FrameGhost || t == FramePageTable {
			return m.staleCheck(f)
		}
	}
	return nil
}

// page returns the backing storage of frame f, or nil if the frame has
// never been written (all-zero).
func (m *Memory) page(f Frame) *[PageSize]byte { return m.pages[f] }

// ensurePage returns the backing storage of frame f, allocating it on
// first write and breaking copy-on-write sharing: the returned page is
// always private to this machine, so every write path may store through
// it directly.
func (m *Memory) ensurePage(f Frame) *[PageSize]byte {
	pg := m.pages[f]
	if pg == nil {
		pg = new([PageSize]byte)
		m.pages[f] = pg
		return pg
	}
	if m.shared != nil && m.shared[f] {
		cp := *pg
		pg = &cp
		m.pages[f] = pg
		m.shared[f] = false
	}
	return pg
}

// NumFrames returns the number of physical frames.
func (m *Memory) NumFrames() int { return m.nframes }

// FreeFrames returns how many frames are currently free.
func (m *Memory) FreeFrames() int { return len(m.free) }

// AllocFrame takes a free frame and tags it with the given type.
func (m *Memory) AllocFrame(t FrameType) (Frame, error) {
	if len(m.free) == 0 {
		return 0, ErrOutOfMemory
	}
	f := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.ftype[f] = t
	m.refs[f] = 0
	return f, nil
}

// FreeFrame returns a frame to the free list. The frame must have no
// remaining mapping references.
func (m *Memory) FreeFrame(f Frame) error {
	if err := m.checkFrame(f); err != nil {
		return err
	}
	if m.ftype[f] == FrameFree {
		return fmt.Errorf("hw: double free of frame %d", f)
	}
	if m.refs[f] != 0 {
		return fmt.Errorf("hw: freeing frame %d with %d live mappings", f, m.refs[f])
	}
	if err := m.checkStale(f, m.ftype[f]); err != nil {
		return fmt.Errorf("hw: freeing frame %d: %w", f, err)
	}
	if m.ftype[f] == FramePageTable {
		m.ptGen++
	}
	m.ftype[f] = FrameFree
	m.free = append(m.free, f)
	return nil
}

// TypeOf returns the current type of a frame.
func (m *Memory) TypeOf(f Frame) FrameType {
	if f >= Frame(m.nframes) {
		return FrameFree
	}
	return m.ftype[f]
}

// SetType retags a frame. Retagging is how the SVA VM converts an OS-
// provided frame into a ghost or page-table frame after validating it.
func (m *Memory) SetType(f Frame, t FrameType) error {
	if err := m.checkFrame(f); err != nil {
		return err
	}
	if err := m.checkStale(f, m.ftype[f], t); err != nil {
		return fmt.Errorf("hw: retyping frame %d to %s: %w", f, t, err)
	}
	if m.ftype[f] == FramePageTable || t == FramePageTable {
		m.ptGen++
	}
	m.ftype[f] = t
	return nil
}

// Refs returns the mapping reference count of a frame.
func (m *Memory) Refs(f Frame) int { return int(m.refs[f]) }

// AddRef / DropRef maintain the mapping reference count. They are called
// by the MMU layer when page-table entries naming the frame are created
// or destroyed.
func (m *Memory) AddRef(f Frame) { m.refs[f]++ }

// DropRef decrements the mapping reference count.
func (m *Memory) DropRef(f Frame) {
	if m.refs[f] == 0 {
		panic(fmt.Sprintf("hw: ref underflow on frame %d", f))
	}
	m.refs[f]--
}

func (m *Memory) checkFrame(f Frame) error {
	if f == 0 || f >= Frame(m.nframes) {
		return fmt.Errorf("%w: frame %d", ErrBadPhys, f)
	}
	return nil
}

func (m *Memory) checkRange(p Phys, n int) error {
	if n < 0 || uint64(p)+uint64(n) > uint64(m.nframes)*PageSize || p < PageSize {
		return fmt.Errorf("%w: [%#x,+%d)", ErrBadPhys, uint64(p), n)
	}
	return nil
}

// ReadPhys copies n bytes at physical address p into a fresh slice.
func (m *Memory) ReadPhys(p Phys, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := m.ReadPhysInto(p, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPhysInto copies len(buf) bytes at physical address p into buf
// without allocating.
func (m *Memory) ReadPhysInto(p Phys, buf []byte) error {
	if err := m.checkRange(p, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		off := int(p & (PageSize - 1))
		n := min(len(buf), PageSize-off)
		if pg := m.page(FrameOf(p)); pg != nil {
			copy(buf[:n], pg[off:off+n])
		} else {
			clear(buf[:n])
		}
		p += Phys(n)
		buf = buf[n:]
	}
	return nil
}

// WritePhys stores b at physical address p.
func (m *Memory) WritePhys(p Phys, b []byte) error {
	if err := m.checkRange(p, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		f := FrameOf(p)
		off := int(p & (PageSize - 1))
		n := min(len(b), PageSize-off)
		copy(m.ensurePage(f)[off:], b[:n])
		if m.ftype[f] == FramePageTable {
			m.ptGen++
		}
		p += Phys(n)
		b = b[n:]
	}
	return nil
}

// ReadLE loads a little-endian value of size bytes (1..8) at p without
// allocating.
func (m *Memory) ReadLE(p Phys, size int) (uint64, error) {
	if size < 0 || size > 8 {
		return 0, fmt.Errorf("hw: scalar read of %d bytes", size)
	}
	if err := m.checkRange(p, size); err != nil {
		return 0, err
	}
	off := int(p & (PageSize - 1))
	if off+size <= PageSize {
		pg := m.page(FrameOf(p))
		if pg == nil {
			return 0, nil
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(pg[off+i])
		}
		return v, nil
	}
	var buf [8]byte
	if err := m.ReadPhysInto(p, buf[:size]); err != nil {
		return 0, err
	}
	return getLE(buf[:size]), nil
}

// WriteLE stores a little-endian value of size bytes (1..8) at p
// without allocating.
func (m *Memory) WriteLE(p Phys, size int, v uint64) error {
	if size < 0 || size > 8 {
		return fmt.Errorf("hw: scalar write of %d bytes", size)
	}
	if err := m.checkRange(p, size); err != nil {
		return err
	}
	f := FrameOf(p)
	off := int(p & (PageSize - 1))
	if off+size <= PageSize {
		pg := m.ensurePage(f)
		for i := 0; i < size; i++ {
			pg[off+i] = byte(v >> (8 * i))
		}
		if m.ftype[f] == FramePageTable {
			m.ptGen++
		}
		return nil
	}
	var buf [8]byte
	putLE(buf[:size], v)
	return m.WritePhys(p, buf[:size])
}

// Read64 loads a little-endian uint64 at p.
func (m *Memory) Read64(p Phys) (uint64, error) {
	return m.ReadLE(p, 8)
}

// Write64 stores a little-endian uint64 at p.
func (m *Memory) Write64(p Phys, v uint64) error {
	return m.WriteLE(p, 8, v)
}

// ZeroFrame clears a frame's contents and charges the zeroing cost.
func (m *Memory) ZeroFrame(f Frame) error {
	if err := m.checkFrame(f); err != nil {
		return err
	}
	if pg := m.page(f); pg != nil {
		if m.shared != nil && m.shared[f] {
			// Shared with a snapshot image: dropping the alias zeroes
			// this machine's view without touching the image's page.
			m.pages[f] = nil
			m.shared[f] = false
		} else {
			clear(pg[:])
		}
	}
	if m.ftype[f] == FramePageTable {
		m.ptGen++
	}
	if m.clock != nil {
		m.clock.Charge(TagMemAccess, CostPageZero)
	}
	return nil
}

// FrameBytes exposes the raw contents of a frame. It is used by the
// devices (disk DMA, swap) and by tests; guest code never touches it.
func (m *Memory) FrameBytes(f Frame) ([]byte, error) {
	if err := m.checkFrame(f); err != nil {
		return nil, err
	}
	// The caller may write through the returned slice; treat the
	// hand-out as a potential mutation of a page-table frame.
	if m.ftype[f] == FramePageTable {
		m.ptGen++
	}
	return m.ensurePage(f)[:], nil
}

func getLE(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLE(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v)
		v >>= 8
	}
}
