package vir

import (
	"errors"
	"fmt"

	"repro/internal/hw"
)

// Env is the world an executing IR function sees: memory (through the
// simulated CPU/MMU at supervisor privilege), host intrinsics (kernel
// services exposed to modules), the code space (function-pointer
// resolution), and the clock. The kernel provides the Env when it runs
// module code.
type Env interface {
	// Load/Store/Memcpy access simulated virtual memory at the
	// privilege of the executing context.
	Load(addr hw.Virt, size int) (uint64, error)
	Store(addr hw.Virt, size int, v uint64) error
	Memcpy(dst, src hw.Virt, n int) error
	// Intrinsic invokes a named host service (console printing,
	// kernel helpers the module links against).
	Intrinsic(name string, args []uint64) (uint64, error)
	// FuncByAddr resolves a code address to a function, if the address
	// is the entry point of one.
	FuncByAddr(addr uint64) (*Function, bool)
	// FuncAddr returns the code address of a named function.
	FuncAddr(name string) (uint64, bool)
	// InKernelCode reports whether addr lies inside kernel code space
	// (the CFI pass also masks targets to this range).
	InKernelCode(addr uint64) bool
	// PortIn/PortOut access the I/O port bus. Under Virtual Ghost the
	// kernel's Env routes these through the SVA VM's checked I/O
	// instructions; natively they hit the bus directly.
	PortIn(port uint16) (uint64, error)
	PortOut(port uint16, v uint64) error
	Clock() *hw.Clock
}

// CFIViolation is raised when an instrumented return or indirect call
// detects an illegal target. The kernel terminates the offending thread
// (paper §4.5: "the CFI instrumentation would detect that and terminate
// the execution of the kernel thread").
type CFIViolation struct {
	Fn     string
	Target uint64
	Reason string
}

func (e *CFIViolation) Error() string {
	return fmt.Sprintf("vir: CFI violation in %s: target %#x: %s", e.Fn, e.Target, e.Reason)
}

// ErrStepLimit is returned when execution exceeds the engine's step
// budget (runaway loop guard).
var ErrStepLimit = errors.New("vir: step limit exceeded")

// CorruptReturnIntrinsic is the IR-level model of a stack smash that
// overwrites a return address: calling it stores an override that the
// enclosing function's return uses as its control target.
const CorruptReturnIntrinsic = "__corrupt_return"

// CFICheck is the instrumented control-transfer check of cfi.callind
// and cfi.ret: the target must be in kernel code space and must be the
// entry of a function that carries a CFI label. The engine and the
// reference interpreter (virref) both call it, so both construct
// identical violations.
func CFICheck(env Env, from string, target uint64) error {
	if !env.InKernelCode(target) {
		return &CFIViolation{Fn: from, Target: target, Reason: "target outside kernel code space"}
	}
	callee, ok := env.FuncByAddr(target)
	if !ok {
		return &CFIViolation{Fn: from, Target: target, Reason: "target is not a function entry"}
	}
	if !callee.Labeled {
		return &CFIViolation{Fn: from, Target: target, Reason: "target has no CFI label"}
	}
	return nil
}

// MaskAddress is the semantic of the sandbox masking sequence: ghost-
// partition addresses get the escape bit OR-ed in (pushing them into
// kernel space), and SVA-internal addresses are redirected to 0 (the
// prototype zeroed them; frame 0 is reserved so such accesses fault).
func MaskAddress(a uint64) uint64 {
	if a >= uint64(hw.GhostBase) {
		a |= uint64(hw.GhostEscapeBit)
	}
	if a >= uint64(SVAInternalBase) && a < uint64(SVAInternalTop) {
		a = 0
	}
	return a
}

// SVA internal memory occupies a carve-out of the kernel data segment,
// as in the prototype ("we opted to leave the SVA internal memory
// within the kernel's data segment"). The load/store instrumentation
// zeroes addresses in this window.
const (
	SVAInternalBase hw.Virt = 0xffffff9000000000
	SVAInternalTop  hw.Virt = 0xffffff9040000000 // 1 GiB window
)
