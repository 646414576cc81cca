package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"repro/internal/hw"
	"repro/internal/vgcrypt"
)

// This file is the HAL half of the snapshot subsystem (DESIGN.md §18):
// the per-thread state both HALs keep — interrupt contexts, ghost page
// maps, permitted-handler sets, application keys — plus the VM-private
// counters (swap nonces, sealing nonces, the IOMMU latch mirror) and
// the scratch direct-map contents. Host-side structures (translator,
// code space, registered handler/frame-source closures) are rebuilt by
// booting an equivalent machine before ApplyHALSnap overwrites state.

// SnapshotStateful is implemented by every HAL that supports
// snapshot/restore. The shadow HAL inherits the native implementation:
// its hypervisor costs are stateless constants. ApplyHALSnap loads only
// a snapshot that CheckHALSnap accepted.
type SnapshotStateful interface {
	CaptureHALSnap() (*HALSnap, error)
	CheckHALSnap(*HALSnap) error
	ApplyHALSnap(*HALSnap)
}

// SnapshotSealer is the Virtual Ghost VM's image-sealing service: a
// snapshot image must not expose ghost or VM-internal frame contents in
// the clear, so the snapshot subsystem routes those pages through the
// VM, which seals them under a TPM-rooted key that never appears in the
// image (paper §4.4 key chain; MProtect's sealed-memory threat model).
// Only *VM implements this — native and shadow images carry every frame
// in plaintext, which is exactly the exposure the tampered-snapshot
// security row demonstrates.
type SnapshotSealer interface {
	SealSnapshotPage(frame uint64, plain []byte) ([]byte, error)
	OpenSnapshotPage(frame uint64, blob []byte) ([]byte, error)
}

// HALSnap is the serializable HAL state. VG-only fields are zero for
// native captures; Mode-tagged images keep the two from mixing.
type HALSnap struct {
	Cur     []int64      `json:"cur"`
	Threads []ThreadSnap `json:"threads,omitempty"`
	Scratch ScratchSnap  `json:"scratch,omitempty"`

	// Virtual Ghost VM state.
	SwapCounter  uint64 `json:"swap_counter,omitempty"`
	IOMMULatch   uint64 `json:"iommu_latch,omitempty"`
	NonceCounter uint64 `json:"nonce_counter,omitempty"`

	// Native HAL state: per-thread raw key sections (the native kernel
	// holds them in the clear — that exposure is the paper's point).
	AppKeys []AppKeySnap `json:"app_keys,omitempty"`
}

// ThreadSnap is one thread's HAL state, sorted by ID in HALSnap.
type ThreadSnap struct {
	ID          int64           `json:"id"`
	Root        uint64          `json:"root"`
	IC          *hw.TrapFrame   `json:"ic,omitempty"`
	ICStack     []*hw.TrapFrame `json:"ic_stack,omitempty"`
	PendingAddr uint64          `json:"pending_addr,omitempty"`
	PendingArgs []uint64        `json:"pending_args,omitempty"`
	PendingSet  bool            `json:"pending_set,omitempty"`
	Permitted   []uint64        `json:"permitted,omitempty"`
	Ghost       []GhostPageSnap `json:"ghost,omitempty"`
	Swapped     []SwapPageSnap  `json:"swapped,omitempty"`
	AppKey      []byte          `json:"app_key,omitempty"`
	BinName     string          `json:"bin_name,omitempty"`
}

// GhostPageSnap records one ghost-partition mapping.
type GhostPageSnap struct {
	VA    uint64 `json:"va"`
	Frame uint64 `json:"frame"`
}

// SwapPageSnap records the integrity digest of one swapped-out ghost
// page.
type SwapPageSnap struct {
	VA     uint64 `json:"va"`
	Digest []byte `json:"digest"`
}

// ScratchSnap is the kernel direct-map contents (page base -> bytes).
type ScratchSnap map[uint64][]byte

// AppKeySnap is one native thread's key section.
type AppKeySnap struct {
	ID  int64  `json:"id"`
	Key []byte `json:"key"`
}

func (h *halCommon) captureCommon() *HALSnap {
	s := &HALSnap{Cur: make([]int64, len(h.cur))}
	for i, t := range h.cur {
		s.Cur[i] = int64(t)
	}
	ids := make([]int, 0, len(h.threads))
	for id := range h.threads {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		ts := h.threads[ThreadID(id)]
		t := ThreadSnap{
			ID:          int64(ts.id),
			Root:        uint64(ts.root),
			PendingAddr: ts.pendingAddr,
			PendingArgs: append([]uint64(nil), ts.pendingArgs...),
			PendingSet:  ts.pendingSet,
			AppKey:      append([]byte(nil), ts.appKey...),
			BinName:     ts.binName,
		}
		if ts.hasIC {
			ic := ts.ic
			t.IC = &ic
		}
		for _, f := range ts.icStack {
			t.ICStack = append(t.ICStack, &f)
		}
		for a, ok := range ts.permitted {
			if ok {
				t.Permitted = append(t.Permitted, a)
			}
		}
		sort.Slice(t.Permitted, func(i, j int) bool { return t.Permitted[i] < t.Permitted[j] })
		for va, f := range ts.ghost {
			t.Ghost = append(t.Ghost, GhostPageSnap{VA: uint64(va), Frame: uint64(f)})
		}
		sort.Slice(t.Ghost, func(i, j int) bool { return t.Ghost[i].VA < t.Ghost[j].VA })
		for va, d := range ts.swapped {
			t.Swapped = append(t.Swapped, SwapPageSnap{VA: uint64(va), Digest: append([]byte(nil), d[:]...)})
		}
		sort.Slice(t.Swapped, func(i, j int) bool { return t.Swapped[i].VA < t.Swapped[j].VA })
		s.Threads = append(s.Threads, t)
	}
	return s
}

// CheckHALSnap reports whether ApplyHALSnap can load s: it refuses a
// scheduled-thread list of another length than the machine's CPUs, a
// nil interrupt-context stack entry, and a scratch page that is not one
// page long. It changes nothing.
func (h *halCommon) CheckHALSnap(s *HALSnap) error {
	if len(s.Cur) != len(h.cur) {
		return fmt.Errorf("core: snapshot has %d CPUs of scheduled-thread state, machine has %d", len(s.Cur), len(h.cur))
	}
	for _, t := range s.Threads {
		if slices.Contains(t.ICStack, nil) {
			return fmt.Errorf("core: snapshot thread %d has a nil interrupt context on its stack", t.ID)
		}
	}
	for _, b := range s.Scratch {
		if len(b) != hw.PageSize {
			return fmt.Errorf("core: snapshot holds a scratch page that is not %d bytes", hw.PageSize)
		}
	}
	return nil
}

func (h *halCommon) applyCommon(s *HALSnap) {
	for i, t := range s.Cur {
		h.cur[i] = ThreadID(t)
	}
	clear(h.threads)
	for _, t := range s.Threads {
		ts := &threadState{
			id:          ThreadID(t.ID),
			root:        hw.Frame(t.Root),
			pendingAddr: t.PendingAddr,
			pendingArgs: append([]uint64(nil), t.PendingArgs...),
			pendingSet:  t.PendingSet,
			permitted:   make(map[uint64]bool, len(t.Permitted)),
			ghost:       make(map[hw.Virt]hw.Frame, len(t.Ghost)),
			swapped:     make(map[hw.Virt][32]byte, len(t.Swapped)),
			appKey:      append([]byte(nil), t.AppKey...),
			binName:     t.BinName,
		}
		if t.IC != nil {
			ts.ic, ts.hasIC = *t.IC, true
		}
		for _, f := range t.ICStack {
			ts.icStack = append(ts.icStack, *f)
		}
		for _, a := range t.Permitted {
			ts.permitted[a] = true
		}
		for _, g := range t.Ghost {
			ts.ghost[hw.Virt(g.VA)] = hw.Frame(g.Frame)
		}
		for _, sw := range t.Swapped {
			var d [32]byte
			copy(d[:], sw.Digest)
			ts.swapped[hw.Virt(sw.VA)] = d
		}
		h.threads[ts.id] = ts
	}
}

func (s *scratchMem) captureSnap() ScratchSnap {
	// The native HAL allocates its scratch map lazily; an absent map and
	// an empty one are the same machine state, so both capture as nil
	// and images never depend on allocation history.
	if s == nil || len(s.pages) == 0 {
		return nil
	}
	out := make(ScratchSnap, len(s.pages))
	for va, pg := range s.pages {
		out[uint64(va)] = append([]byte(nil), pg[:]...)
	}
	return out
}

func (s *scratchMem) applySnap(snap ScratchSnap) {
	if s == nil {
		return
	}
	clear(s.pages)
	for va, b := range snap {
		s.pages[hw.Virt(va)] = (*[hw.PageSize]byte)(bytes.Clone(b))
	}
}

// CaptureHALSnap serializes the VM's state: common thread state plus
// the sealing counters, the IOMMU latch mirror and the scratch direct
// map. The key chain itself is not captured — it re-derives from the
// machine's TPM storage key, which never leaves the platform.
func (vm *VM) CaptureHALSnap() (*HALSnap, error) {
	s := vm.captureCommon()
	s.Scratch = vm.scratch.captureSnap()
	s.SwapCounter = vm.swapCounter
	s.IOMMULatch = uint64(vm.iommuLatch)
	s.NonceCounter = vm.keys.nonces.Counter()
	return s, nil
}

// ApplyHALSnap overwrites the VM's state with a captured snapshot.
func (vm *VM) ApplyHALSnap(s *HALSnap) {
	vm.applyCommon(s)
	vm.scratch.applySnap(s.Scratch)
	vm.swapCounter = s.SwapCounter
	vm.iommuLatch = hw.Frame(s.IOMMULatch)
	vm.keys.nonces.SetCounter(s.NonceCounter)
}

// snapshotPageKey derives the symmetric key sealing protected frames in
// snapshot images. It hangs off the same TPM-rooted chain as the key
// sections, so an equivalent machine (same TPM storage key) re-derives
// it at restore and nothing key-like is ever written into the image.
func (vm *VM) snapshotPageKey() []byte {
	return vgcrypt.DeriveKey(vm.keys.sealKey, "snapshot-frame-seal")
}

// SealSnapshotPage encrypts one protected frame's contents for a
// snapshot image. The frame number keys the nonce, so the encoding is
// deterministic: equal machine states produce byte-identical images.
func (vm *VM) SealSnapshotPage(frame uint64, plain []byte) ([]byte, error) {
	return vgcrypt.SealWithKeyAndCounter(vm.snapshotPageKey(), frame, plain)
}

// OpenSnapshotPage authenticates and decrypts a sealed image frame.
// Any bit flipped in the blob — or a key chain rooted in a different
// TPM — fails authentication (vgcrypt.ErrCorrupt) and the restore is
// refused before the page touches memory.
func (vm *VM) OpenSnapshotPage(frame uint64, blob []byte) ([]byte, error) {
	_ = frame // the nonce travels inside the blob; frame is the caller's index
	return vgcrypt.Open(vm.snapshotPageKey(), blob)
}

// CaptureHALSnap serializes the native HAL's state: common thread
// state, the scratch direct map, and the per-thread raw key sections.
func (h *NativeHAL) CaptureHALSnap() (*HALSnap, error) {
	s := h.captureCommon()
	s.Scratch = h.scratch.captureSnap()
	ids := make([]int, 0, len(h.appKeys))
	for id := range h.appKeys {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.AppKeys = append(s.AppKeys, AppKeySnap{
			ID:  int64(id),
			Key: append([]byte(nil), h.appKeys[ThreadID(id)]...),
		})
	}
	return s, nil
}

// ApplyHALSnap overwrites the native HAL's state with a captured
// snapshot.
func (h *NativeHAL) ApplyHALSnap(s *HALSnap) {
	h.applyCommon(s)
	if h.scratch == nil && len(s.Scratch) > 0 {
		h.scratch = newScratchMem()
	}
	h.scratch.applySnap(s.Scratch)
	clear(h.appKeys)
	for _, ak := range s.AppKeys {
		h.appKeys[ThreadID(ak.ID)] = append([]byte(nil), ak.Key...)
	}
}
