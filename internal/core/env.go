package core

import (
	"repro/internal/hw"
	"repro/internal/vir"
)

// IntrinsicFunc dispatches host intrinsics (kernel services linked into
// a module) for IR execution.
type IntrinsicFunc func(name string, args []uint64) (uint64, error)

// moduleEnv is the vir.Env for kernel-module execution. Its memory
// operations are *uninstrumented* — the sandboxing lives in the
// translated instruction stream itself (OpMaskGhost), exactly as on
// real hardware where the check is emitted code, not a property of the
// load/store unit. Whether a module's accesses are masked therefore
// depends entirely on whether it was compiled by the Virtual Ghost
// translator.
type moduleEnv struct {
	h          *halCommon
	root       hw.Frame
	intrinsics IntrinsicFunc
	// scratch, when non-nil (Virtual Ghost), backs kernel-space
	// addresses (the direct-map model); natively kernel-space accesses
	// use the same scratch owned by the kernel via its HAL.
	scratch *scratchMem
	// checkedPorts, when non-nil, routes port I/O through the VM's
	// policy checks.
	vm *VM
}

// ModuleEnv returns the execution environment for module code running
// on the Virtual Ghost configuration.
func (vm *VM) ModuleEnv(root hw.Frame, intrinsics IntrinsicFunc) vir.Env {
	return &moduleEnv{h: &vm.halCommon, root: root, intrinsics: intrinsics, scratch: vm.scratch, vm: vm}
}

// ModuleEnv returns the execution environment for module code running
// on the native configuration.
func (h *NativeHAL) ModuleEnv(root hw.Frame, intrinsics IntrinsicFunc) vir.Env {
	if h.scratch == nil {
		h.scratch = newScratchMem()
	}
	return &moduleEnv{h: &h.halCommon, root: root, intrinsics: intrinsics, scratch: h.scratch}
}

func (e *moduleEnv) Clock() *hw.Clock { return e.h.m.Clock }

func (e *moduleEnv) Load(addr hw.Virt, size int) (uint64, error) {
	e.h.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	if hw.IsKernel(addr) {
		return e.scratch.load(addr, size), nil
	}
	p, err := e.h.translateIn(e.root, addr, hw.AccRead)
	if err != nil {
		return 0, err
	}
	return e.h.m.Mem.ReadLE(p, size)
}

func (e *moduleEnv) Store(addr hw.Virt, size int, v uint64) error {
	e.h.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	if hw.IsKernel(addr) {
		e.scratch.store(addr, size, v)
		return nil
	}
	p, err := e.h.translateIn(e.root, addr, hw.AccWrite)
	if err != nil {
		return err
	}
	return e.h.m.Mem.WriteLE(p, size, v)
}

func (e *moduleEnv) Memcpy(dst, src hw.Virt, n int) error {
	e.h.m.Clock.ChargeBytes(hw.TagMemAccess, n, hw.CostBcopyPerByte)
	for i := 0; i < n; i++ {
		v, err := e.Load(src+hw.Virt(i), 1)
		if err != nil {
			return err
		}
		if err := e.Store(dst+hw.Virt(i), 1, v); err != nil {
			return err
		}
	}
	return nil
}

func (e *moduleEnv) Intrinsic(name string, args []uint64) (uint64, error) {
	if e.intrinsics == nil {
		return 0, nil
	}
	return e.intrinsics(name, args)
}

func (e *moduleEnv) FuncByAddr(addr uint64) (*vir.Function, bool) {
	return e.h.xlator.Space.FuncByAddr(addr)
}

func (e *moduleEnv) FuncAddr(name string) (uint64, bool) {
	return e.h.xlator.Space.FuncAddr(name)
}

func (e *moduleEnv) InKernelCode(addr uint64) bool {
	return e.h.xlator.Space.InKernelCode(addr)
}

// DirectPage implements vir.DirectPages: a kernel address is the
// scratch direct map, whose Load and Store are exactly the
// CostMemAccess charge and a byte access. An untouched page is nil, so
// the engine's first store to it comes through Store, which allocates.
func (e *moduleEnv) DirectPage(addr hw.Virt) *[hw.PageSize]byte {
	if !hw.IsKernel(addr) {
		return nil
	}
	return e.scratch.page(addr)
}

// CodeEpoch implements vir.CodeEpochs: the pre-linked engine flushes
// its code cache whenever the code space's bindings change.
func (e *moduleEnv) CodeEpoch() uint64 {
	return e.h.xlator.Space.Epoch()
}

func (e *moduleEnv) PortIn(port uint16) (uint64, error) {
	if e.vm != nil {
		return e.vm.PortIn(port)
	}
	e.h.m.Clock.Charge(hw.TagIO, hw.CostMemAccess)
	return e.h.m.Ports.In(port), nil
}

func (e *moduleEnv) PortOut(port uint16, v uint64) error {
	if e.vm != nil {
		return e.vm.PortOut(port, v)
	}
	e.h.m.Clock.Charge(hw.TagIO, hw.CostMemAccess)
	e.h.m.Ports.Out(port, v)
	return nil
}

var (
	_ vir.Env         = (*moduleEnv)(nil)
	_ vir.CodeEpochs  = (*moduleEnv)(nil)
	_ vir.DirectPages = (*moduleEnv)(nil)
)
