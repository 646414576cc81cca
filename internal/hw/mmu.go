package hw

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Virtual address space layout, mirroring the prototype (paper §5):
// user space in the low canonical half, the ghost partition in the
// 512 GiB slice 0xffffff0000000000–0xffffff8000000000, and kernel space
// above it. The sandboxing instrumentation's bit trick relies on this
// alignment: OR-ing bit 39 into any ghost-partition address produces a
// kernel-space address.
const (
	UserBase  Virt = 0x0000000000001000
	UserTop   Virt = 0x00007fffffffffff
	GhostBase Virt = 0xffffff0000000000
	GhostTop  Virt = 0xffffff8000000000 // exclusive
	KernBase  Virt = 0xffffff8000000000
	KernTop   Virt = 0xffffffffffffffff
	// GhostEscapeBit is the bit the sandbox instrumentation ORs into
	// addresses at or above GhostBase (1<<39), moving them out of the
	// ghost partition and into kernel space.
	GhostEscapeBit Virt = 1 << 39
)

// IsUser reports whether v lies in the user partition.
func IsUser(v Virt) bool { return v >= UserBase && v <= UserTop }

// IsGhost reports whether v lies in the ghost partition.
func IsGhost(v Virt) bool { return v >= GhostBase && v < GhostTop }

// IsKernel reports whether v lies in the kernel partition.
func IsKernel(v Virt) bool { return v >= KernBase }

// PTE flag bits (x86-64 style).
const (
	PTEPresent  uint64 = 1 << 0
	PTEWrite    uint64 = 1 << 1
	PTEUser     uint64 = 1 << 2
	PTEAccessed uint64 = 1 << 5
	PTEDirty    uint64 = 1 << 6
	PTENoExec   uint64 = 1 << 63
	pteAddrMask uint64 = 0x000ffffffffff000
)

// PTE is one page-table entry.
type PTE uint64

// Present reports the present bit.
func (e PTE) Present() bool { return uint64(e)&PTEPresent != 0 }

// Writable reports the writable bit.
func (e PTE) Writable() bool { return uint64(e)&PTEWrite != 0 }

// UserOK reports the user-accessible bit.
func (e PTE) UserOK() bool { return uint64(e)&PTEUser != 0 }

// NoExec reports the no-execute bit.
func (e PTE) NoExec() bool { return uint64(e)&PTENoExec != 0 }

// Frame returns the frame the entry points at.
func (e PTE) Frame() Frame { return FrameOf(Phys(uint64(e) & pteAddrMask)) }

// MakePTE builds an entry from a frame and flags.
func MakePTE(f Frame, flags uint64) PTE {
	return PTE(uint64(f.Addr())&pteAddrMask | flags)
}

// Page-table geometry: 4 levels, 9 bits each, 512 entries per table.
const (
	ptLevels  = 4
	ptEntries = 512
)

func ptIndex(v Virt, level int) uint64 {
	// level 3 = root (PML4), level 0 = leaf (PT).
	shift := PageShift + 9*level
	return (uint64(v) >> uint(shift)) & (ptEntries - 1)
}

// Access describes the kind of memory access being translated.
type Access uint8

const (
	// AccRead is a data load.
	AccRead Access = iota
	// AccWrite is a data store.
	AccWrite
	// AccExec is an instruction fetch.
	AccExec
)

func (a Access) String() string {
	switch a {
	case AccRead:
		return "read"
	case AccWrite:
		return "write"
	case AccExec:
		return "exec"
	}
	return "access?"
}

// Fault is a translation fault (page fault or protection violation).
type Fault struct {
	VA     Virt
	Acc    Access
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("hw: page fault at %#x (%s): %s", uint64(f.VA), f.Acc, f.Reason)
}

// ErrNotMapped distinguishes "no translation" faults.
var ErrNotMapped = errors.New("not mapped")

// MMU performs virtual-to-physical translation using 4-level page
// tables that live in simulated physical memory (FramePageTable frames),
// exactly as the real hardware walker does. A per-root TLB caches leaf
// translations; address-space switches flush it.
//
// Alongside the modeled TLB the MMU keeps a host-side *walk cache* of
// completed software walks, keyed by (root, page) so it is valid across
// address-space switches. It is a pure simulator speedup: users of
// CachedLeaf charge virtual time as if they had walked the tables. A
// cached walk serves only the page-table generation (Memory.ptGen) it
// was filled at, and every way a page-table byte can change advances
// that generation, so a cached translation can never outlive the
// mapping it describes.
type MMU struct {
	mem   *Memory
	clock *Clock
	// cpu is the owning CPU's id, so translation charges land on that
	// CPU's shard during an epoch's user phase (0 for the boot CPU and
	// bare MMUs).
	cpu  int
	root Frame // current CR3 (root page-table frame); 0 = none
	tlb  map[Virt]tlbEntry

	// walks is the host-side walk cache, direct-mapped by walkIndex. It
	// describes the physical page tables all CPUs share, but needs no
	// sharing: every MMU checks its slots against the one Memory.ptGen.
	walks [walkSlots]walkSlot
}

// walkSlots is the number of walks an MMU caches. No workload keeps
// more than a handful live at once.
const walkSlots = 64

// walkSlot is one cached positive walk: the address space it was
// performed in (root frame, standing in for CR3), the page, the
// page-table generation it was filled at, and the leaf PTE it found.
type walkSlot struct {
	root Frame
	page Virt
	gen  uint64
	pte  PTE
}

// walkIndex picks the slot that caches page's walk from root.
func walkIndex(root Frame, page Virt) uint64 {
	return (uint64(page)>>PageShift ^ uint64(root)) % walkSlots
}

type tlbEntry struct {
	frame Frame
	flags uint64
}

// NewMMU creates an MMU over the given memory.
func NewMMU(mem *Memory, clock *Clock) *MMU {
	return &MMU{
		mem:   mem,
		clock: clock,
		tlb:   make(map[Virt]tlbEntry),
	}
}

// Root returns the current root page-table frame (CR3).
func (u *MMU) Root() Frame { return u.root }

// SetRoot switches address spaces (loads CR3) and flushes the TLB.
func (u *MMU) SetRoot(f Frame) {
	u.root = f
	u.FlushTLB()
	if u.clock != nil {
		u.clock.ChargeOn(u.cpu, TagTLB, CostTLBFlush)
	}
}

// FlushTLB invalidates all cached translations.
func (u *MMU) FlushTLB() {
	if len(u.tlb) > 0 {
		u.tlb = make(map[Virt]tlbEntry)
	}
}

// InvalidatePage drops one page's cached translation (invlpg). Like
// the real instruction it is strictly local to this CPU's TLB; remote
// TLBs require the shootdown protocol (Machine.ShootdownFrame).
func (u *MMU) InvalidatePage(v Virt) { delete(u.tlb, PageOf(v)) }

// HoldsFrame reports whether this TLB caches any translation that
// resolves to frame f. Machine.staleTranslationCheck uses it to refuse
// freeing or retyping a frame a remote CPU could still reach.
func (u *MMU) HoldsFrame(f Frame) bool {
	for _, te := range u.tlb {
		if te.frame == f {
			return true
		}
	}
	return false
}

// FlushFrame drops every TLB entry that maps frame f — the remote half
// of a TLB shootdown (the invlpg loop run in the IPI handler).
func (u *MMU) FlushFrame(f Frame) {
	for v, te := range u.tlb {
		if te.frame == f {
			delete(u.tlb, v)
		}
	}
}

// Translate walks the page tables for v in the current address space and
// checks permissions for the given access at the given privilege.
// userMode=true means CPL 3. It returns the physical address.
func (u *MMU) Translate(v Virt, acc Access, userMode bool) (Phys, error) {
	page := PageOf(v)
	off := Phys(v - page)
	if te, ok := u.tlb[page]; ok {
		if u.clock != nil {
			u.clock.ChargeOn(u.cpu, TagTLB, CostTLBHit)
		}
		if err := checkPerm(te.flags, acc, userMode, v); err != nil {
			return 0, err
		}
		return te.frame.Addr() + off, nil
	}
	if u.root == 0 {
		return 0, &Fault{VA: v, Acc: acc, Reason: "no address space loaded"}
	}
	if u.clock != nil {
		u.clock.ChargeOn(u.cpu, TagTLB, CostPTWalk)
	}
	table := u.root
	// Accumulate the AND of the user/write permissions along the walk,
	// as x86 does.
	effFlags := PTEWrite | PTEUser
	for level := ptLevels - 1; level >= 1; level-- {
		e, err := u.readPTE(table, ptIndex(v, level))
		if err != nil {
			return 0, err
		}
		if !e.Present() {
			return 0, &Fault{VA: v, Acc: acc, Reason: ErrNotMapped.Error()}
		}
		effFlags &= uint64(e) & (PTEWrite | PTEUser)
		table = e.Frame()
	}
	leaf, err := u.readPTE(table, ptIndex(v, 0))
	if err != nil {
		return 0, err
	}
	if !leaf.Present() {
		return 0, &Fault{VA: v, Acc: acc, Reason: ErrNotMapped.Error()}
	}
	flags := uint64(leaf)&^(PTEWrite|PTEUser) | (uint64(leaf) & effFlags)
	u.tlb[page] = tlbEntry{frame: leaf.Frame(), flags: flags}
	if err := checkPerm(flags, acc, userMode, v); err != nil {
		return 0, err
	}
	return leaf.Frame().Addr() + off, nil
}

func checkPerm(flags uint64, acc Access, userMode bool, v Virt) error {
	if userMode && flags&PTEUser == 0 {
		return &Fault{VA: v, Acc: acc, Reason: "supervisor page accessed from user mode"}
	}
	switch acc {
	case AccWrite:
		if flags&PTEWrite == 0 {
			return &Fault{VA: v, Acc: acc, Reason: "write to read-only page"}
		}
	case AccExec:
		if flags&PTENoExec != 0 {
			return &Fault{VA: v, Acc: acc, Reason: "execute of no-exec page"}
		}
	}
	return nil
}

// readPTE loads entry idx of the page-table page in frame table.
func (u *MMU) readPTE(table Frame, idx uint64) (PTE, error) {
	v, err := u.mem.Read64(table.Addr() + Phys(idx*8))
	if err != nil {
		return 0, err
	}
	return PTE(v), nil
}

// RawWritePTE stores a page-table entry directly into physical memory.
// This is the *hardware* primitive: on a real machine any supervisor
// store can do this, which is exactly why Virtual Ghost makes the SVA VM
// the only code that may reach page-table frames. The SVA layer
// (internal/core) performs its checks and then calls this. A hostile
// kernel on the Native configuration can call it freely.
func (u *MMU) RawWritePTE(table Frame, idx uint64, e PTE) error {
	if idx >= ptEntries {
		return fmt.Errorf("hw: PTE index %d out of range", idx)
	}
	if err := u.mem.Write64(table.Addr()+Phys(idx*8), uint64(e)); err != nil {
		return err
	}
	// Any cached walk may now be stale. Advancing the generation here,
	// whatever the frame's type, covers tables the kernel never declared
	// as FramePageTable, so a hostile Native kernel cannot bypass it.
	u.mem.ptGen++
	return nil
}

// ReadPTE reads a page-table entry (used by the SVA checks and by the
// kernel's software page-table walks).
func (u *MMU) ReadPTE(table Frame, idx uint64) (PTE, error) {
	return u.readPTE(table, idx)
}

// VisitPresentPTEs calls fn with every present entry of the page-table
// page in frame table, in index order: what 512 ReadPTE calls find,
// with one range check for the page instead of one per entry. It reads
// RAM in place and writes nothing, so fn must not store to the table
// page. It charges nothing, as ReadPTE charges nothing.
func (u *MMU) VisitPresentPTEs(table Frame, fn func(PTE)) error {
	if err := u.mem.checkRange(table.Addr(), PageSize); err != nil {
		return err
	}
	pg := u.mem.page(table)
	if pg == nil {
		return nil // never written: every entry is zero
	}
	for off := 0; off < PageSize; off += 8 {
		if e := PTE(binary.LittleEndian.Uint64(pg[off:])); e.Present() {
			fn(e)
		}
	}
	return nil
}

// WalkLeaf returns the leaf PTE location (table frame + index) for v in
// the address space rooted at root, allocating nothing. It reports
// whether every intermediate level was present.
func (u *MMU) WalkLeaf(root Frame, v Virt) (table Frame, idx uint64, ok bool, err error) {
	table = root
	for level := ptLevels - 1; level >= 1; level-- {
		e, err := u.readPTE(table, ptIndex(v, level))
		if err != nil {
			return 0, 0, false, err
		}
		if !e.Present() {
			return 0, 0, false, nil
		}
		table = e.Frame()
	}
	return table, ptIndex(v, 0), true, nil
}

// EnsureTables walks from root toward the leaf level for v, allocating
// missing intermediate page-table pages with alloc, writing entries via
// write. It returns the leaf table frame and index. alloc and write are
// callbacks so that the caller (kernel via SVA, or a hostile kernel
// directly) controls frame provenance and entry flags.
func (u *MMU) EnsureTables(root Frame, v Virt,
	alloc func() (Frame, error),
	write func(table Frame, idx uint64, e PTE) error,
) (Frame, uint64, error) {
	table := root
	for level := ptLevels - 1; level >= 1; level-- {
		idx := ptIndex(v, level)
		e, err := u.readPTE(table, idx)
		if err != nil {
			return 0, 0, err
		}
		if !e.Present() {
			nf, err := alloc()
			if err != nil {
				return 0, 0, err
			}
			// Intermediate entries carry permissive flags; real
			// permission bits are enforced at the leaf and by the
			// AND-walk in Translate.
			if err := write(table, idx, MakePTE(nf, PTEPresent|PTEWrite|PTEUser)); err != nil {
				return 0, 0, err
			}
			table = nf
			continue
		}
		table = e.Frame()
	}
	return table, ptIndex(v, 0), nil
}

// CachedLeaf returns the leaf PTE for v in the address space rooted at
// root, serving repeated lookups from the walk cache. ok is false when
// any level of the walk is non-present (negative results are never
// cached). Callers model their own timing: a hit here must still charge
// whatever virtual cost the modeled access would pay, because the cache
// exists only to spare the *host* the O(levels) physical reads.
func (u *MMU) CachedLeaf(root Frame, v Virt) (PTE, bool, error) {
	page := PageOf(v)
	s := &u.walks[walkIndex(root, page)]
	if s.gen == u.mem.ptGen && s.root == root && s.page == page {
		return s.pte, true, nil
	}
	table, idx, ok, err := u.WalkLeaf(root, v)
	if err != nil || !ok {
		return 0, false, err
	}
	leaf, err := u.readPTE(table, idx)
	if err != nil || !leaf.Present() {
		return 0, false, err
	}
	*s = walkSlot{root: root, page: page, gen: u.mem.ptGen, pte: leaf}
	return leaf, true, nil
}
