package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/hw"
)

// sortedGhostVAs returns a thread's ghost-mapped virtual addresses in
// ascending order. Teardown and inheritance walk the ghost map per page
// while allocating or returning physical frames, so walking it in map
// order would make frame assignment depend on Go's map randomization —
// invisible to the virtual clock but fatal to bit-identical snapshots.
func sortedGhostVAs(ghost map[hw.Virt]hw.Frame) []hw.Virt {
	vas := make([]hw.Virt, 0, len(ghost))
	for va := range ghost {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	return vas
}

// ErrNoFrameSource is returned when a HAL operation needs frames but the
// kernel has not registered a FrameSource.
var ErrNoFrameSource = errors.New("core: no frame source registered")

// ErrUnknownThread is returned for operations on unregistered threads.
var ErrUnknownThread = errors.New("core: unknown thread")

// threadState is the per-thread state the HAL keeps. Under Virtual
// Ghost this conceptually lives in SVA VM internal memory, out of the
// kernel's reach; natively the equivalents live on kernel stacks and in
// kernel structures where anything can touch them.
type threadState struct {
	id   ThreadID
	root hw.Frame // address-space root, recorded on first use

	// ic is the thread's Interrupt Context: the state its latest trap
	// saved, or that fork or a snapshot put there. Under Virtual Ghost
	// it is VM internal memory; natively it stands for the kernel
	// stack. It is the only copy: a thread has at most one trap in
	// flight, because only its own user context raises traps and a
	// blocked handler parks the thread.
	ic hw.TrapFrame
	// hasIC records that ic holds a context.
	hasIC bool
	// handle is the kernel's IContext on ic, made once by the HAL.
	handle IContext
	// icStack holds contexts saved around signal delivery.
	icStack []hw.TrapFrame

	// pending is the handler pushed by IPushFunction, consumed by the
	// return-to-user path.
	pendingAddr uint64
	pendingArgs []uint64
	pendingSet  bool

	// permitted is the sva.permitFunction allow-list.
	permitted map[uint64]bool

	// ghost maps ghost-partition page VAs to their frames.
	ghost map[hw.Virt]hw.Frame

	// swapped records a digest for each swapped-out ghost page so that
	// corrupt or replayed swap blobs are rejected.
	swapped map[hw.Virt][32]byte

	// appKey is the application's private key, decrypted from the
	// binary's key section at load time.
	appKey []byte
	// binName is the name of the validated binary, for diagnostics.
	binName string
}

// halCommon carries the state shared by the Virtual Ghost VM and the
// native HAL: the machine, the kernel's registrations, thread states,
// and the code translator.
type halCommon struct {
	m       *hw.Machine
	handler TrapHandler
	frames  FrameSource
	xlator  *compiler.Translator
	threads map[ThreadID]*threadState
	// cur is the scheduled thread per CPU: the HAL state that is
	// per-processor on a real SMP machine (the prototype keeps it in
	// per-CPU SVA internal memory). Indexed by Machine.CurCPU().
	cur []ThreadID
}

func newHALCommon(m *hw.Machine, instrument bool) halCommon {
	xlator := compiler.NewTranslator(instrument)
	// Admission verification runs on this machine, so its cost lands on
	// this machine's clock.
	xlator.Clock = m.Clock
	return halCommon{
		m:       m,
		xlator:  xlator,
		threads: make(map[ThreadID]*threadState),
		cur:     make([]ThreadID, m.NumCPUs()),
	}
}

// Machine returns the underlying hardware.
func (h *halCommon) Machine() *hw.Machine { return h.m }

// RegisterTrapHandler installs the kernel's trap entry point.
func (h *halCommon) RegisterTrapHandler(fn TrapHandler) { h.handler = fn }

// RegisterFrameSource installs the kernel's frame allocator.
func (h *halCommon) RegisterFrameSource(src FrameSource) { h.frames = src }

// CodeSpace exposes the machine's kernel code space.
func (h *halCommon) CodeSpace() *compiler.CodeSpace { return h.xlator.Space }

// SetCurrentThread records the scheduled thread on the current CPU.
func (h *halCommon) SetCurrentThread(t ThreadID) { h.cur[h.m.CurCPU()] = t }

// CurrentThread returns the thread scheduled on the current CPU.
func (h *halCommon) CurrentThread() ThreadID { return h.cur[h.m.CurCPU()] }

// currentTID is the internal shorthand for the current CPU's thread.
func (h *halCommon) currentTID() ThreadID { return h.cur[h.m.CurCPU()] }

// thread returns (creating if needed) the state for t.
func (h *halCommon) thread(t ThreadID) *threadState {
	ts, ok := h.threads[t]
	if !ok {
		ts = &threadState{
			id:        t,
			permitted: make(map[uint64]bool),
			ghost:     make(map[hw.Virt]hw.Frame),
			swapped:   make(map[hw.Virt][32]byte),
		}
		h.threads[t] = ts
	}
	return ts
}

// lookup returns the state for t or an error.
func (h *halCommon) lookup(t ThreadID) (*threadState, error) {
	ts, ok := h.threads[t]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownThread, t)
	}
	return ts, nil
}

// getFrame pulls a frame from the kernel's allocator.
func (h *halCommon) getFrame() (hw.Frame, error) {
	if h.frames == nil {
		return 0, ErrNoFrameSource
	}
	return h.frames.GetFrame()
}

// translateIn walks the page tables rooted at root for va, independent
// of the currently loaded CR3 (the kernel frequently operates on
// another process's address space). Supervisor accesses ignore the
// user bit but honour write protection.
func (h *halCommon) translateIn(root hw.Frame, va hw.Virt, acc hw.Access) (hw.Phys, error) {
	// This models a *software* walk: the target address space is
	// usually not the one loaded in CR3, so the hardware TLB cannot
	// serve it and every call pays the full walk cost. The walk cache
	// consulted by CachedLeaf is a host-side structure only; charging
	// is identical whether it hits or misses.
	h.m.Clock.Charge(hw.TagTLB, hw.CostPTWalk)
	e, ok, err := h.m.MMU.CachedLeaf(root, va)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, &hw.Fault{VA: va, Acc: acc, Reason: hw.ErrNotMapped.Error()}
	}
	if acc == hw.AccWrite && !e.Writable() {
		return 0, &hw.Fault{VA: va, Acc: acc, Reason: "write to read-only page"}
	}
	return e.Frame().Addr() + hw.Phys(va&(hw.PageSize-1)), nil
}

// rawMap installs va -> frame in root without any policy checks,
// allocating intermediate page-table pages from the frame source and
// declaring them via declare (which differs between the two HALs).
// It maintains frame mapping reference counts.
func (h *halCommon) rawMap(root hw.Frame, va hw.Virt, f hw.Frame, flags uint64,
	declare func(hw.Frame) error) error {
	table, idx, err := h.m.MMU.EnsureTables(root, va,
		func() (hw.Frame, error) {
			nf, err := h.getFrame()
			if err != nil {
				return 0, err
			}
			if err := declare(nf); err != nil {
				h.frames.PutFrame(nf)
				return 0, err
			}
			return nf, nil
		},
		func(table hw.Frame, idx uint64, e hw.PTE) error {
			return h.m.MMU.RawWritePTE(table, idx, e)
		},
	)
	if err != nil {
		return err
	}
	old, err := h.m.MMU.ReadPTE(table, idx)
	if err != nil {
		return err
	}
	if old.Present() {
		h.m.Mem.DropRef(old.Frame())
	}
	if err := h.m.MMU.RawWritePTE(table, idx, hw.MakePTE(f, flags|hw.PTEPresent)); err != nil {
		return err
	}
	h.m.Mem.AddRef(f)
	h.m.CurMMU().InvalidatePage(va)
	return nil
}

// rawUnmap removes the leaf mapping for va in root, if present.
func (h *halCommon) rawUnmap(root hw.Frame, va hw.Virt) error {
	table, idx, ok, err := h.m.MMU.WalkLeaf(root, va)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	old, err := h.m.MMU.ReadPTE(table, idx)
	if err != nil {
		return err
	}
	if !old.Present() {
		return nil
	}
	if err := h.m.MMU.RawWritePTE(table, idx, 0); err != nil {
		return err
	}
	h.m.Mem.DropRef(old.Frame())
	// invlpg is local to the CPU performing the unmap; flushing other
	// CPUs' TLBs takes the shootdown protocol, which the Virtual Ghost
	// VM runs before a ghost or page-table frame changes owners.
	h.m.CurMMU().InvalidatePage(va)
	return nil
}

// doSyscall is the shared trap choreography: load arguments into the
// register file, take the trap (the HAL-specific trap handler runs the
// kernel), and read back the return value.
func (h *halCommon) doSyscall(num uint64, args [6]uint64) uint64 {
	cpu := h.m.Cur()
	cpu.Regs.GPR[hw.RAX] = num
	cpu.Regs.GPR[hw.RDI] = args[0]
	cpu.Regs.GPR[hw.RSI] = args[1]
	cpu.Regs.GPR[hw.RDX] = args[2]
	cpu.Regs.GPR[hw.RCX] = args[3]
	cpu.Regs.GPR[hw.R8] = args[4]
	cpu.Regs.GPR[hw.R9] = args[5]
	cpu.Regs.Priv = hw.User
	cpu.Trap(hw.TrapSyscall, num)
	return cpu.Regs.GPR[hw.RAX]
}
