package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/hw"
)

// This file is the kernel half of the snapshot subsystem (DESIGN.md
// §18). Processes are Go goroutines whose stacks cannot be serialized,
// so snapshots are taken only at *quiescent* points: no live processes,
// no occupied scheduler slots, no open connections. At such a point the
// kernel's residual state is plain data — allocator cursors, counters,
// caches — and capture/apply below serializes exactly that. Host-side
// linkage (the syscall table, intrinsics, installed programs, planted
// code, the module engines) is not serialized: restore targets a kernel
// booted with the same code, which the module-identity check enforces.

// ErrNotQuiescent reports a snapshot attempt while processes or
// connections are still live. Callers drain work (RunUntilIdle, reap
// children, close sockets) and retry.
var ErrNotQuiescent = errors.New("kernel: machine not quiescent")

// ErrSnapshotStale reports a restore attempt whose image was taken
// under a different module set (code epoch): the snapshot's virtual
// numbers were produced by code this kernel is not running, so applying
// it would silently break determinism. The image must be re-taken, not
// re-linked.
var ErrSnapshotStale = errors.New("kernel: snapshot stale: module set differs from loaded tree")

// ModuleID identifies one loaded module by name and canonical-IR
// digest. The ordered list of these is the kernel's code-epoch
// identity.
type ModuleID struct {
	Name     string `json:"name"`
	IRDigest []byte `json:"ir_digest"`
}

// CPURunSnap is one virtual CPU's scheduler residue at quiescence: the
// round-robin cursor and the busy-cycle counter (run queue and epoch
// slot are empty by definition).
type CPURunSnap struct {
	LastPID int    `json:"last_pid"`
	Busy    uint64 `json:"busy"`
}

// BufSnap is one buffer-cache block, in LRU order (head = MRU first).
type BufSnap struct {
	Blk   int    `json:"blk"`
	Data  []byte `json:"data"`
	Dirty bool   `json:"dirty,omitempty"`
}

// BufCacheSnap is the buffer cache: contents in exact LRU order plus
// the hit/miss/writeback counters, so post-restore cache behaviour —
// and therefore every subsequent disk charge — is bit-identical.
type BufCacheSnap struct {
	Bufs       []BufSnap `json:"bufs,omitempty"`
	Hits       uint64    `json:"hits"`
	Misses     uint64    `json:"misses"`
	Writebacks uint64    `json:"writebacks"`
}

// NameCacheSnap is one vnode name-cache entry.
type NameCacheSnap struct {
	Dir  uint32 `json:"dir"`
	Name string `json:"fname"`
	Ino  uint32 `json:"ino"`
	Slot int    `json:"slot"`
}

// SlotHintSnap is one directory's free-dirent-slot hint.
type SlotHintSnap struct {
	Dir  uint32 `json:"dir"`
	Slot int    `json:"slot"`
}

// FSSnap is the file system's in-memory residue: allocation rotors and
// the lookup caches (the on-disk state travels in the machine image).
type FSSnap struct {
	BlockRotor int             `json:"block_rotor"`
	InodeRotor int             `json:"inode_rotor"`
	NameCache  []NameCacheSnap `json:"name_cache,omitempty"`
	SlotHints  []SlotHintSnap  `json:"slot_hints,omitempty"`
}

// SwappedGhostSnap is one encrypted ghost-swap blob the OS holds.
type SwappedGhostSnap struct {
	PID  int    `json:"pid"`
	VA   uint64 `json:"va"`
	Blob []byte `json:"blob"`
}

// NetSnap is the network stack's residue at quiescence: the port
// allocator cursor and range, the window default, the cumulative
// drop/timeout counters, and the timer-arm sequence (arm sequence
// numbers break same-expiry firing ties, so the cursor must survive
// restore for resumed runs to stay bit-identical with straight runs).
// Connections, listeners, poll sets, and armed timers are empty by the
// quiescence contract.
type NetSnap struct {
	NextPort   uint16 `json:"next_port"`
	PortLo     uint16 `json:"port_lo"`
	PortHi     uint16 `json:"port_hi"`
	RecvWindow int    `json:"recv_window"`
	TimerSeq   uint64 `json:"timer_seq"`
	Stats      NetStats
}

// KernelSnap is the serializable kernel state at a quiescent point.
type KernelSnap struct {
	NextPID      int                `json:"next_pid"`
	LastCPU      int                `json:"last_cpu"`
	CPUs         []CPURunSnap       `json:"cpus"`
	Stats        Stats              `json:"stats"`
	SysProf      []SyscallCycles    `json:"sys_prof,omitempty"`
	ModLog       []byte             `json:"mod_log,omitempty"`
	SwappedGhost []SwappedGhostSnap `json:"swapped_ghost,omitempty"`
	Net          NetSnap            `json:"net"`
	FS           FSSnap             `json:"fs"`
	BufCache     BufCacheSnap       `json:"buf_cache"`
	Modules      []ModuleID         `json:"modules"`
}

// CheckQuiescent reports (as an ErrNotQuiescent-wrapped error) whether
// the kernel is at a snapshot-safe point: no processes, no scheduler
// work, no open connections or listeners, no armed network timers.
// Capture requires it, and the snapshot subsystem checks restore
// targets with it so a refused restore leaves the target untouched.
func (k *Kernel) CheckQuiescent() error {
	if n := len(k.procs); n > 0 {
		return fmt.Errorf("%w: %d processes still exist (run to completion and reap them)", ErrNotQuiescent, n)
	}
	if k.cur != nil {
		return fmt.Errorf("%w: a process is scheduled", ErrNotQuiescent)
	}
	for _, c := range k.cpus {
		if c.slot != nil || len(c.pids) > 0 {
			return fmt.Errorf("%w: CPU %d still has scheduler work", ErrNotQuiescent, c.id)
		}
	}
	if n := k.Net.conns.n; n > 0 {
		return fmt.Errorf("%w: %d network connections open", ErrNotQuiescent, n)
	}
	if n := k.Net.listeners.n; n > 0 {
		return fmt.Errorf("%w: %d listeners open", ErrNotQuiescent, n)
	}
	if n := k.Net.timers.pendingCount(); n > 0 {
		return fmt.Errorf("%w: %d network timers armed", ErrNotQuiescent, n)
	}
	return nil
}

// ModuleIdentity returns the kernel's code-epoch identity: the loaded
// modules in load order with their canonical-IR digests.
func (k *Kernel) ModuleIdentity() []ModuleID {
	out := make([]ModuleID, 0, len(k.modules))
	for _, m := range k.modules {
		out = append(out, ModuleID{Name: m.Name, IRDigest: append([]byte(nil), m.irDigest[:]...)})
	}
	return out
}

// checkModuleIdentity compares a snapshot's recorded module list
// against this kernel's, returning ErrSnapshotStale (wrapped with the
// first difference) on any mismatch. Order matters: the same modules
// loaded in a different order produce different admission and engine
// state.
func (k *Kernel) checkModuleIdentity(want []ModuleID) error {
	have := k.ModuleIdentity()
	if len(want) != len(have) {
		return fmt.Errorf("%w: image has %d modules, kernel has %d", ErrSnapshotStale, len(want), len(have))
	}
	for i := range want {
		if want[i].Name != have[i].Name {
			return fmt.Errorf("%w: module %d is %q in image, %q in kernel", ErrSnapshotStale, i, want[i].Name, have[i].Name)
		}
		if !bytes.Equal(want[i].IRDigest, have[i].IRDigest) {
			return fmt.Errorf("%w: module %q IR digest differs", ErrSnapshotStale, want[i].Name)
		}
	}
	return nil
}

// CaptureKernelSnap serializes the kernel's state. It fails with
// ErrNotQuiescent unless all processes have finished and been reaped
// and the network stack is idle.
func (k *Kernel) CaptureKernelSnap() (*KernelSnap, error) {
	if err := k.CheckQuiescent(); err != nil {
		return nil, err
	}
	s := &KernelSnap{
		NextPID: k.nextPID,
		LastCPU: k.lastCPU,
		Stats:   k.stats,
		ModLog:  append([]byte(nil), k.modLogBuf...),
		Net: NetSnap{
			NextPort:   k.Net.nextPort,
			PortLo:     k.Net.portLo,
			PortHi:     k.Net.portHi,
			RecvWindow: k.Net.defWindow,
			TimerSeq:   k.Net.timers.nextSeq,
			Stats:      k.Net.stats,
		},
		Modules: k.ModuleIdentity(),
	}
	for _, c := range k.cpus {
		s.CPUs = append(s.CPUs, CPURunSnap{LastPID: c.lastPID, Busy: c.busy})
	}
	for _, sc := range k.sysProf {
		if sc != nil {
			s.SysProf = append(s.SysProf, *sc)
		}
	}
	pids := make([]int, 0, len(k.swappedGhost))
	for pid := range k.swappedGhost {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		vas := make([]uint64, 0, len(k.swappedGhost[pid]))
		for va := range k.swappedGhost[pid] {
			vas = append(vas, uint64(va))
		}
		sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
		for _, va := range vas {
			blob := k.swappedGhost[pid][hw.Virt(va)]
			s.SwappedGhost = append(s.SwappedGhost, SwappedGhostSnap{
				PID: pid, VA: va, Blob: append([]byte(nil), blob...),
			})
		}
	}
	s.FS = k.FS.captureSnap()
	s.BufCache = k.FS.cache.captureSnap()
	return s, nil
}

// CheckKernelSnap reports whether ApplyKernelSnap can load the image
// on this kernel: the same CPU count and module set (ErrSnapshotStale
// otherwise), a syscall profile inside the dispatch table, directory
// slots a directory can have, and a buffer cache inside the disk. The
// snapshot subsystem runs it, with CheckQuiescent, before it changes
// the machine, so a refused image leaves the whole target untouched.
func (k *Kernel) CheckKernelSnap(s *KernelSnap) error {
	if len(s.CPUs) != len(k.cpus) {
		return fmt.Errorf("kernel: snapshot has %d CPUs of scheduler state, machine has %d", len(s.CPUs), len(k.cpus))
	}
	if err := k.checkModuleIdentity(s.Modules); err != nil {
		return err
	}
	for _, sc := range s.SysProf {
		if sc.Num >= uint64(len(k.syscalls)) {
			return fmt.Errorf("kernel: snapshot profiles syscall %d, past the dispatch table", sc.Num)
		}
	}
	if err := k.FS.checkSnap(s.FS); err != nil {
		return err
	}
	return k.FS.cache.checkSnap(s.BufCache)
}

// ApplyKernelSnap overwrites the kernel's state with a captured
// snapshot. The kernel must be quiescent (CheckQuiescent) and must have
// accepted the image (CheckKernelSnap).
func (k *Kernel) ApplyKernelSnap(s *KernelSnap) {
	k.nextPID = s.NextPID
	k.lastCPU = s.LastCPU
	k.cur = nil
	clear(k.procs)
	for i, c := range k.cpus {
		c.pids = nil
		c.lastPID = s.CPUs[i].LastPID
		c.busy = s.CPUs[i].Busy
		c.slot = nil
		c.pend = pendNone
	}
	k.stats = s.Stats
	k.sysProf = nil
	if len(s.SysProf) > 0 {
		k.sysProf = make([]*SyscallCycles, len(k.syscalls))
	}
	for _, sc := range s.SysProf {
		cp := sc
		k.sysProf[sc.Num] = &cp
	}
	k.modLogBuf = append([]byte(nil), s.ModLog...)
	clear(k.swappedGhost)
	for _, sg := range s.SwappedGhost {
		per, ok := k.swappedGhost[sg.PID]
		if !ok {
			per = make(map[hw.Virt][]byte)
			k.swappedGhost[sg.PID] = per
		}
		per[hw.Virt(sg.VA)] = append([]byte(nil), sg.Blob...)
	}
	k.Net.conns = portTable[Conn]{}
	k.Net.listeners = portTable[Listener]{}
	k.Net.nextPort = s.Net.NextPort
	k.Net.portLo = s.Net.PortLo
	k.Net.portHi = s.Net.PortHi
	k.Net.defWindow = s.Net.RecvWindow
	k.Net.stats = s.Net.Stats
	// Armed timers are empty by the quiescence contract; an empty queue
	// with the captured arm sequence reproduces the pre-snapshot queue
	// exactly.
	k.Net.timers = &timerQueue{nextSeq: s.Net.TimerSeq}
	k.FS.applySnap(s.FS)
	k.FS.cache.applySnap(s.BufCache)
	// Host-side execution caches are keyed by pre-restore structures
	// (address-space roots, lowering pointers); cold-start them. Linking
	// and env construction are host-only work — by the engine's own
	// contract the virtual clock never sees a cache flush.
	clear(k.modEnvs)
	clear(k.refInterps)
	k.engine.ResetCaches()
}

func (fs *FS) captureSnap() FSSnap {
	s := FSSnap{BlockRotor: fs.blockRotor, InodeRotor: fs.inodeRotor}
	for key, val := range fs.namecache {
		s.NameCache = append(s.NameCache, NameCacheSnap{
			Dir: key.dir, Name: key.name, Ino: val.ino, Slot: val.slot,
		})
	}
	sort.Slice(s.NameCache, func(i, j int) bool {
		if s.NameCache[i].Dir != s.NameCache[j].Dir {
			return s.NameCache[i].Dir < s.NameCache[j].Dir
		}
		return s.NameCache[i].Name < s.NameCache[j].Name
	})
	for dir, slot := range fs.freeSlotHint {
		s.SlotHints = append(s.SlotHints, SlotHintSnap{Dir: dir, Slot: slot})
	}
	sort.Slice(s.SlotHints, func(i, j int) bool { return s.SlotHints[i].Dir < s.SlotHints[j].Dir })
	return s
}

// checkSnap refuses a name-cache slot or a slot hint that no directory
// can have: dirRemove would turn the one, and dirInsert the other, into
// an offset outside the directory's blocks.
func (fs *FS) checkSnap(s FSSnap) error {
	const maxSlots = MaxFileSize / direntSize
	for _, e := range s.NameCache {
		if e.Slot < 0 || e.Slot >= maxSlots {
			return fmt.Errorf("kernel: snapshot caches %q in directory %d at slot %d, outside [0, %d)", e.Name, e.Dir, e.Slot, maxSlots)
		}
	}
	// A full directory's hint is one past its last slot.
	for _, h := range s.SlotHints {
		if h.Slot < 0 || h.Slot > maxSlots {
			return fmt.Errorf("kernel: snapshot hints slot %d for directory %d, outside [0, %d]", h.Slot, h.Dir, maxSlots)
		}
	}
	return nil
}

func (fs *FS) applySnap(s FSSnap) {
	fs.blockRotor = s.BlockRotor
	fs.inodeRotor = s.InodeRotor
	clear(fs.namecache)
	for _, e := range s.NameCache {
		fs.namecache[nckey{dir: e.Dir, name: e.Name}] = ncval{ino: e.Ino, slot: e.Slot}
	}
	clear(fs.freeSlotHint)
	for _, h := range s.SlotHints {
		fs.freeSlotHint[h.Dir] = h.Slot
	}
	// The restored disk may hold other entries in any directory.
	clear(fs.dirIndex)
}

func (c *BufCache) captureSnap() BufCacheSnap {
	s := BufCacheSnap{Hits: c.hits, Misses: c.misses, Writebacks: c.writebacks}
	for b := c.head; b != nil; b = b.next {
		s.Bufs = append(s.Bufs, BufSnap{
			Blk: b.blk, Data: append([]byte(nil), b.data...), Dirty: b.dirty,
		})
	}
	return s
}

// checkSnap refuses a buffer-cache image that names a block outside
// the disk, holds a buffer that is not one block long, or names a
// block twice. Applied, the first would size the block index past the
// disk, the second would hand the file system a short buffer to index
// into, and the third would link one block into the LRU list twice.
func (c *BufCache) checkSnap(s BufCacheSnap) error {
	nblocks := c.disk.NumBlocks()
	seen := make(map[int]bool, len(s.Bufs))
	for _, bs := range s.Bufs {
		if bs.Blk < 0 || bs.Blk >= nblocks {
			return fmt.Errorf("kernel: snapshot caches block %d, outside the %d-block disk", bs.Blk, nblocks)
		}
		if len(bs.Data) != hw.BlockSize {
			return fmt.Errorf("kernel: snapshot caches block %d as %d bytes, want %d", bs.Blk, len(bs.Data), hw.BlockSize)
		}
		if seen[bs.Blk] {
			return fmt.Errorf("kernel: snapshot caches block %d twice", bs.Blk)
		}
		seen[bs.Blk] = true
	}
	return nil
}

// applySnap loads an image that checkSnap accepted.
func (c *BufCache) applySnap(s BufCacheSnap) {
	c.hits, c.misses, c.writebacks = s.Hits, s.Misses, s.Writebacks
	c.reset()
	var prev *buf
	for _, bs := range s.Bufs {
		b := &buf{blk: bs.Blk, data: append([]byte(nil), bs.Data...), dirty: bs.Dirty, prev: prev}
		if prev == nil {
			c.head = b
		} else {
			prev.next = b
		}
		c.index(b)
		prev = b
	}
	c.tail = prev
}
