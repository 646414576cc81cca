// Package shadow implements the comparison baseline of the paper's
// evaluation: an InkTag/Overshadow-style hypervisor-based protection
// system. The OS runs paravirtualized under a higher-privilege
// hypervisor; application pages are shadowed — encrypted and hashed
// whenever the OS touches them — and MMU updates and trap handling
// cross the hypervisor boundary.
//
// The model captures the cost structure the paper contrasts Virtual
// Ghost against (§9): per-syscall hypervisor crossings, per-MMU-update
// hypercalls, and per-page cryptography on kernel accesses to
// application memory. The kernel is *uninstrumented* (no sandboxing or
// CFI costs), which is why InkTag wins on the paths Virtual Ghost's
// per-access masking dominates (exec, file create/delete) and loses
// badly on trap-heavy paths (null syscall).
package shadow

import (
	"repro/internal/core"
	"repro/internal/hw"
)

// Cost constants of the hypervisor boundary (virtual cycles).
const (
	// CostVMExit is one guest->hypervisor->guest crossing plus the
	// hypervisor's validation work. Trap-and-emulate syscall
	// interposition pays two (entry and exit), which puts the null
	// syscall in the dozens-of-x range the paper reports for InkTag.
	CostVMExit = 8200
	// CostMMUHypercall is a paravirtual page-table update: crossing
	// plus shadow-page-table synchronization.
	CostMMUHypercall = 23000
	// CostShadowPage is the per-page encrypt+hash when the OS touches
	// an application page (copyin/copyout/KLoad paths).
	CostShadowPage = hw.CostPageCrypt + hw.CostPageHash
)

// HAL is the shadowing baseline: the native HAL plus hypervisor costs.
// It embeds the full native behaviour — the shadowing hypervisor
// detects tampering but, unlike Virtual Ghost, does not prevent the OS
// from reading or writing the (encrypted) pages, and our attack
// experiments are not run against it; it exists for the performance
// comparison columns.
type HAL struct {
	*core.NativeHAL
	m *hw.Machine
}

// New wraps a machine in the shadowing baseline.
func New(m *hw.Machine) (*HAL, error) {
	n, err := core.NewNativeHAL(m)
	if err != nil {
		return nil, err
	}
	return &HAL{NativeHAL: n, m: m}, nil
}

// Mode identifies the configuration.
func (h *HAL) Mode() core.Mode { return core.ModeShadow }

// Syscall pays two hypervisor crossings around the native trap (the
// hypervisor interposes on every kernel entry and exit to protect
// application register state and shadowed pages).
func (h *HAL) Syscall(num uint64, args [6]uint64) uint64 {
	h.m.Clock.Charge(hw.TagShadow, 2*CostVMExit)
	return h.NativeHAL.Syscall(num, args)
}

// CostShadowFault is the extra shadow-paging work on a guest page
// fault: the real fault first vectors into the hypervisor, which walks
// and repairs its shadow structures (several crossings plus
// synchronization) before the guest kernel even sees the fault. InkTag
// reports page faults ~7.5x native, which this reproduces.
const CostShadowFault = 620_000

// Trap pays the same crossings, and page faults additionally pay the
// shadow-paging repair path.
func (h *HAL) Trap(kind hw.TrapKind, info uint64) {
	h.m.Clock.Charge(hw.TagShadow, 2*CostVMExit)
	if kind == hw.TrapPageFault {
		h.m.Clock.Charge(hw.TagShadow, CostShadowFault)
	}
	h.NativeHAL.Trap(kind, info)
}

// MapPage is a paravirtual hypercall: the hypervisor validates the
// update against its shadow page tables.
func (h *HAL) MapPage(root hw.Frame, va hw.Virt, f hw.Frame, flags uint64) error {
	h.m.Clock.Charge(hw.TagShadow, CostMMUHypercall)
	h.m.Clock.Charge(hw.TagCrypt, CostShadowPage)
	return h.NativeHAL.MapPage(root, va, f, flags)
}

// UnmapPage is also hypervisor-mediated, but teardown unmaps are
// batched by the paravirt interface, amortizing the crossing.
func (h *HAL) UnmapPage(root hw.Frame, va hw.Virt) error {
	h.m.Clock.Charge(hw.TagShadow, CostMMUHypercall/8)
	return h.NativeHAL.UnmapPage(root, va)
}

// LoadAddressSpace switches shadow page tables in the hypervisor.
func (h *HAL) LoadAddressSpace(root hw.Frame) error {
	h.m.Clock.Charge(hw.TagShadow, 2*CostMMUHypercall)
	return h.NativeHAL.LoadAddressSpace(root)
}

// Copyin decrypts (and re-verifies) each shadowed application page the
// kernel reads; protected (ghost-partition) sources come back as
// ciphertext.
func (h *HAL) Copyin(root hw.Frame, va hw.Virt, dst []byte) error {
	pages := len(dst)/hw.PageSize + 1
	h.m.Clock.Charge(hw.TagCrypt, uint64(pages)*CostShadowPage)
	if err := h.NativeHAL.Copyin(root, va, dst); err != nil {
		return err
	}
	if hw.IsGhost(va) {
		for i := range dst {
			dst[i] ^= byte(h.pageKeystream(va+hw.Virt(i)) >> uint(8*(i%8)))
		}
	}
	return nil
}

// Copyout re-encrypts and re-hashes each page the kernel writes.
func (h *HAL) Copyout(root hw.Frame, va hw.Virt, b []byte) error {
	pages := len(b)/hw.PageSize + 1
	h.m.Clock.Charge(hw.TagCrypt, uint64(pages)*CostShadowPage)
	return h.NativeHAL.Copyout(root, va, b)
}

// KLoad/KStore: single-word kernel accesses to application memory also
// cross a shadowed page. Accesses to *protected* (ghost-partition)
// pages return the encrypted view: shadowing systems let the OS read
// the page but only in ciphertext (paper §1: previous systems "do not
// prevent such writes and only guarantee that the tampering will be
// detected"; reads see the encrypted image).
func (h *HAL) KLoad(root hw.Frame, va hw.Virt, size int) (uint64, error) {
	if hw.IsUser(va) || hw.IsGhost(va) {
		h.m.Clock.Charge(hw.TagCrypt, CostShadowPage)
	}
	v, err := h.NativeHAL.KLoad(root, va, size)
	if err != nil {
		return 0, err
	}
	if hw.IsGhost(va) {
		v ^= h.pageKeystream(va)
	}
	return v, nil
}

// pageKeystream is the deterministic stand-in for the hypervisor's
// page encryption: the kernel's view of a shadowed page is XORed with
// an address-dependent keystream it cannot derive.
func (h *HAL) pageKeystream(va hw.Virt) uint64 {
	x := uint64(va) ^ 0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// KStore mirrors KLoad.
func (h *HAL) KStore(root hw.Frame, va hw.Virt, size int, v uint64) error {
	if hw.IsUser(va) || hw.IsGhost(va) {
		h.m.Clock.Charge(hw.TagCrypt, CostShadowPage)
	}
	return h.NativeHAL.KStore(root, va, size, v)
}

var _ core.HAL = (*HAL)(nil)

// CostRegionPerPage is the hypervisor's per-page VM-region bookkeeping
// (region registration, shadow-structure sizing) on mmap/munmap.
const CostRegionPerPage = 6000

// OnVMRegion charges per-page region bookkeeping.
func (h *HAL) OnVMRegion(npages int) {
	h.m.Clock.Charge(hw.TagShadow, uint64(npages)*CostRegionPerPage)
}

// CostShadowASCreate is the construction of a fresh shadow page-table
// hierarchy when the guest creates an address space (fork/exec).
const CostShadowASCreate = 480_000

// NewAddressSpace pays shadow-hierarchy construction.
func (h *HAL) NewAddressSpace() (hw.Frame, error) {
	h.m.Clock.Charge(hw.TagShadow, CostShadowASCreate)
	return h.NativeHAL.NewAddressSpace()
}
