package core

import (
	"fmt"

	"repro/internal/hw"
)

// This file implements the VM's Interrupt Context and thread-state
// operations (paper §4.6): sva.newstate, sva.reinit.icontext,
// sva.permitFunction, sva.ipush.function, sva.icontext.save/load.

// NewState creates the state for a new thread (fork): the child's
// Interrupt Context is a clone of the parent's, held in VM internal
// memory. The kernel then sets the child's return value (0) through the
// checked IContext interface; nothing else about the context is under
// OS control.
func (vm *VM) NewState(parent IContext, child ThreadID) (IContext, error) {
	p, ok := parent.(*vgIC)
	if !ok {
		return nil, fmt.Errorf("core: NewState requires a Virtual Ghost interrupt context")
	}
	vm.m.Clock.Charge(hw.TagICSave, hw.CostICSave)
	cts := vm.thread(child)
	cts.ic = *p.tf
	cts.hasIC = true
	return vm.icHandle(cts), nil
}

// ReinitIContext reinitializes a context for a freshly loaded program
// image (execve): the program counter and stack are reset and the
// privilege forced to user. The VM requires that a validated binary was
// loaded for the thread (paper §4.6.2: the program counter must point
// to the entry of a program previously copied into VM memory), and it
// unmaps any ghost memory of the previous image so the new program
// cannot read it.
func (vm *VM) ReinitIContext(ic IContext, entry uint64, stackTop uint64) error {
	c, ok := ic.(*vgIC)
	if !ok {
		return fmt.Errorf("core: ReinitIContext requires a Virtual Ghost interrupt context")
	}
	ts, err := vm.lookup(c.tid)
	if err != nil {
		return err
	}
	if ts.binName == "" {
		return ErrNoBinary
	}
	vm.m.Clock.Charge(hw.TagICSave, hw.CostICSave)
	// Drop the previous image's ghost memory.
	for va, f := range ts.ghost {
		if err := vm.releaseGhostPage(ts, ts.root, va, f); err != nil {
			return err
		}
	}
	// Registered handler entries belong to the old image too.
	ts.permitted = make(map[uint64]bool)
	ts.pendingSet = false
	c.tf.Regs = hw.RegFile{RIP: entry, RSP: stackTop, Priv: hw.User}
	return nil
}

// PermitFunction registers a legal signal-handler entry point for the
// thread's process (sva.permitFunction). The libc signal()/sigaction()
// wrappers call this from the application's own context before asking
// the kernel to install the handler.
func (vm *VM) PermitFunction(t ThreadID, addr uint64) error {
	ts := vm.thread(t)
	ts.permitted[addr] = true
	vm.m.Clock.Charge(hw.TagMemAccess, hw.CostMemAccess)
	return nil
}

// IPushFunction modifies an Interrupt Context so that the interrupted
// program executes the function at addr when resumed
// (sva.ipush.function). It refuses any target the application did not
// register — this is the check that defeats the signal-handler
// code-injection attack of paper §7.
func (vm *VM) IPushFunction(ic IContext, addr uint64, args ...uint64) error {
	c, ok := ic.(*vgIC)
	if !ok {
		return fmt.Errorf("core: IPushFunction requires a Virtual Ghost interrupt context")
	}
	ts, err := vm.lookup(c.tid)
	if err != nil {
		return err
	}
	vm.m.Clock.Charge(hw.TagICSave, hw.CostICSave/2)
	if !ts.permitted[addr] {
		return fmt.Errorf("%w: %#x", ErrNotPermitted, addr)
	}
	ts.pendingAddr = addr
	ts.pendingArgs = append([]uint64(nil), args...)
	ts.pendingSet = true
	// The VM adds the handler frame to the application stack on the
	// OS's behalf; it only pushes, never reads or overwrites live data
	// (paper §4.6.1).
	c.tf.Regs.RSP -= 128
	return nil
}

// PoppedHandler consumes the pending pushed handler for the thread, if
// any. The user-mode resume path calls this to learn it must run a
// signal handler.
func (vm *VM) PoppedHandler(t ThreadID) (uint64, []uint64, bool) {
	ts, ok := vm.threads[t]
	if !ok || !ts.pendingSet {
		return 0, nil, false
	}
	ts.pendingSet = false
	return ts.pendingAddr, ts.pendingArgs, true
}

// SaveIC pushes a copy of the thread's Interrupt Context onto its
// VM-internal stack before signal delivery (sva.icontext.save). The OS
// cannot modify the saved copy, so sigreturn always restores the true
// pre-signal state.
func (vm *VM) SaveIC(t ThreadID) error {
	ts, err := vm.lookup(t)
	if err != nil {
		return err
	}
	if !ts.hasIC {
		return fmt.Errorf("core: thread %d has no interrupt context to save", t)
	}
	vm.m.Clock.Charge(hw.TagICSave, hw.CostICSave)
	ts.icStack = append(ts.icStack, ts.ic)
	return nil
}

// LoadIC pops the most recently saved context back into place after
// signal handling (sva.icontext.load, the sigreturn path).
func (vm *VM) LoadIC(t ThreadID) error {
	ts, err := vm.lookup(t)
	if err != nil {
		return err
	}
	if len(ts.icStack) == 0 {
		return fmt.Errorf("core: thread %d has no saved interrupt context", t)
	}
	vm.m.Clock.Charge(hw.TagICSave, hw.CostICSave)
	ts.ic = ts.icStack[len(ts.icStack)-1]
	ts.icStack = ts.icStack[:len(ts.icStack)-1]
	return nil
}

// EndThread releases all VM state for an exiting thread, scrubbing and
// returning its ghost frames.
func (vm *VM) EndThread(t ThreadID) {
	ts, ok := vm.threads[t]
	if !ok {
		return
	}
	for _, va := range sortedGhostVAs(ts.ghost) {
		// Best effort: scrubbing failure cannot block process exit.
		_ = vm.releaseGhostPage(ts, ts.root, va, ts.ghost[va])
	}
	delete(vm.threads, t)
}
