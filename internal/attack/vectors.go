package attack

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vir"
)

// Result is the outcome of one attack vector run.
type Result struct {
	Name string
	// Succeeded means the *attack* achieved its goal (data stolen /
	// state corrupted). The defended configuration should report
	// false.
	Succeeded bool
	// Detail explains what happened (defence error, or what leaked).
	Detail string
}

func (r Result) String() string {
	verdict := "DEFEATED"
	if r.Succeeded {
		verdict = "SUCCEEDED"
	}
	return fmt.Sprintf("%-24s %s  %s", r.Name, verdict, r.Detail)
}

// findGhostFrame scans physical memory metadata for a frame the HAL has
// tagged as ghost — kernel code legitimately knows which frames it
// handed to allocgm. On the native configuration no frame is tagged
// ghost (they are ordinary user frames), so callers fall back to the
// victim's page-table walk.
func findGhostFrame(k *kernel.Kernel, victim *kernel.Proc, ghostVA hw.Virt) (hw.Frame, bool) {
	// Walk the victim's page tables for the ghost VA — the OS can read
	// PTEs directly on any configuration.
	table, idx, ok, err := k.M.MMU.WalkLeaf(victim.Root(), ghostVA)
	if err != nil || !ok {
		return 0, false
	}
	e, err := k.M.MMU.ReadPTE(table, idx)
	if err != nil || !e.Present() {
		return 0, false
	}
	return e.Frame(), true
}

// MMURemapAttack (paper §2.2.1): the OS maps the physical frame backing
// the victim's ghost page at a kernel-chosen virtual address in the
// victim's address space and reads it from kernel code.
func MMURemapAttack(k *kernel.Kernel, victim *kernel.Proc, ghostVA hw.Virt, secret []byte) Result {
	r := Result{Name: "mmu-remap"}
	page := hw.PageOf(ghostVA)
	off := ghostVA - page
	frame, ok := findGhostFrame(k, victim, page)
	if !ok {
		r.Detail = "could not locate ghost frame"
		return r
	}
	const evilVA = hw.Virt(0x00005e11e0000000)
	if err := k.HAL.MapPage(victim.Root(), evilVA, frame, hw.PTEWrite); err != nil {
		r.Detail = fmt.Sprintf("MapPage refused: %v", err)
		return r
	}
	// Read through the alias with an ordinary (non-ghost-partition)
	// kernel access.
	got := make([]byte, len(secret))
	for i := range got {
		v, err := k.HAL.KLoad(victim.Root(), evilVA+off+hw.Virt(i), 1)
		if err != nil {
			r.Detail = fmt.Sprintf("read through alias failed: %v", err)
			return r
		}
		got[i] = byte(v)
	}
	if bytes.Equal(got, secret) {
		r.Succeeded = true
		r.Detail = fmt.Sprintf("read secret through remapped frame %d", frame)
	} else {
		r.Detail = "alias readable but contents wrong"
	}
	return r
}

// BuildDMAModuleIR builds the module function that programs the IOMMU
// to expose a frame to device DMA, using the port-I/O instructions.
func BuildDMAModuleIR() *vir.Module {
	m := vir.NewModule("dmamod")
	b := vir.NewFunction("expose_frame", 1)
	b.PortOut(vir.Imm(uint64(hw.IOMMUPortFrame)), b.Param(0))
	b.PortOut(vir.Imm(uint64(hw.IOMMUPortCmd)), vir.Imm(hw.IOMMUCmdAllow))
	b.Ret(vir.Imm(0))
	if err := m.AddFunc(b.Fn()); err != nil {
		panic(err)
	}
	return m
}

// DMAAttack (paper §2.2.1): a module programs the IOMMU to allow DMA to
// the ghost frame, then directs a device to copy the frame out.
func DMAAttack(k *kernel.Kernel, victim *kernel.Proc, ghostVA hw.Virt, secret []byte) Result {
	r := Result{Name: "dma"}
	frame, ok := findGhostFrame(k, victim, ghostVA)
	if !ok {
		r.Detail = "could not locate ghost frame"
		return r
	}
	mod, err := k.LoadModule(BuildDMAModuleIR())
	if err != nil {
		r.Detail = fmt.Sprintf("module rejected: %v", err)
		return r
	}
	if _, err := k.RunModuleFunc(mod, "expose_frame", uint64(frame)); err != nil {
		r.Detail = fmt.Sprintf("IOMMU programming refused: %v", err)
		return r
	}
	data, err := k.M.DMA.CopyFromFrame(frame)
	if err != nil {
		r.Detail = fmt.Sprintf("DMA blocked: %v", err)
		return r
	}
	if bytes.Contains(data, secret) {
		r.Succeeded = true
		r.Detail = "DMA'd ghost frame contains the secret"
	} else {
		r.Detail = "DMA succeeded but secret absent"
	}
	return r
}

// StaleTLBAttack (SMP frame-recycling): the hostile OS primes a remote
// CPU's TLB with a translation to a frame it owns, unmaps and frees the
// frame, and steers the free-list so the victim's next ghost allocation
// recycles exactly that frame. Unless the VM runs the TLB-shootdown
// protocol before retyping the frame as ghost memory, the remote CPU
// retains a stale window through which kernel code reads the secret.
//
// The priming is staged from a getpid() interposition — like the §7
// rootkit's read() hook, an innocuous kernel entry the OS controls —
// so it runs on the victim's own dispatch, immediately before the
// ghost allocation, with no scheduler activity in between.
func StaleTLBAttack(k *kernel.Kernel, secret []byte) Result {
	r := Result{Name: "stale-tlb"}
	if k.M.NumCPUs() < 2 {
		r.Detail = "requires a multi-CPU machine (no remote TLB to go stale)"
		return r
	}
	// A kernel-chosen VA outside the ghost partition for the spy alias.
	const spyVA = hw.Virt(0x00005a1e50000000)
	var (
		spyCPU   int
		primed   bool
		primeErr error
		done     bool
	)
	prime := func() {
		// Run on a CPU the victim is not executing on right now; the
		// current dispatch keeps the victim here until it yields, so the
		// spy CPU's TLB entry survives unless something flushes it.
		spyCPU = (k.M.CurCPU() + 1) % k.M.NumCPUs()
		root, err := k.HAL.NewAddressSpace()
		if err != nil {
			primeErr = err
			return
		}
		f, err := k.M.Mem.AllocFrame(hw.FrameUserData)
		if err != nil {
			primeErr = err
			return
		}
		if err := k.HAL.MapPage(root, spyVA, f, hw.PTEWrite); err != nil {
			primeErr = err
			return
		}
		// Touch the mapping from the spy CPU in kernel mode: its TLB now
		// caches spyVA -> f.
		spy := k.M.CPUs[spyCPU]
		spy.MMU.SetRoot(root)
		spy.Regs.Priv = hw.Supervisor
		if _, err := spy.LoadVirt(spyVA, 8); err != nil {
			primeErr = err
			return
		}
		// Unmap (local invlpg only — no shootdown: the OS is hostile)
		// and free. The LIFO free-list hands f to the very next
		// allocation: the victim's ghost page.
		if err := k.HAL.UnmapPage(root, spyVA); err != nil {
			primeErr = err
			return
		}
		if err := k.M.Mem.FreeFrame(f); err != nil {
			primeErr = err
			return
		}
	}
	orig := k.SetSyscallHandler(kernel.SysGetpid, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
		if !primed {
			primed = true
			prime()
		}
		return uint64(p.PID)
	})
	defer k.SetSyscallHandler(kernel.SysGetpid, orig)
	// The victim: an application that allocates ghost memory for its
	// secret. Its getpid() hands the hostile OS the kernel entry it
	// needs; the ghost allocation that follows recycles the primed
	// frame in the same dispatch.
	if _, err := k.Spawn("ghost-victim", func(p *kernel.Proc) {
		p.Syscall(kernel.SysGetpid)
		va, err := p.AllocGM(1)
		if err != nil {
			return
		}
		p.Write(uint64(va), secret)
		done = true
		// Stay alive holding the ghost page while the OS reads; exit
		// would scrub the frame.
		p.Syscall(kernel.SysYield)
	}); err != nil {
		r.Detail = fmt.Sprintf("spawn victim: %v", err)
		return r
	}
	if !k.RunUntil(func() bool { return done }) {
		if primeErr != nil {
			r.Detail = fmt.Sprintf("priming failed: %v", primeErr)
			return r
		}
		r.Detail = "victim never stored its secret"
		return r
	}
	if primeErr != nil {
		r.Detail = fmt.Sprintf("priming failed: %v", primeErr)
		return r
	}
	// Read the victim's ghost frame through the (possibly stale) remote
	// translation.
	spy := k.M.CPUs[spyCPU]
	spy.Regs.Priv = hw.Supervisor
	got := make([]byte, len(secret))
	for i := range got {
		v, err := spy.LoadVirt(spyVA+hw.Virt(i), 1)
		if err != nil {
			r.Detail = fmt.Sprintf("stale read blocked: %v", err)
			return r
		}
		got[i] = byte(v)
	}
	if bytes.Equal(got, secret) {
		r.Succeeded = true
		r.Detail = fmt.Sprintf("cpu%d read the secret through a stale TLB entry", spyCPU)
	} else {
		r.Detail = "stale translation readable but frame was scrubbed"
	}
	return r
}

// ICTamperAttack (paper §2.2.4): from a read() interposition, grab the
// saved interrupt context and redirect the victim's program counter to
// planted exploit code.
func ICTamperAttack(k *kernel.Kernel, victimPID int, targetAddr uint64, targetLen int, exfil string) *ICTamper {
	t := &ICTamper{k: k, victimPID: victimPID, targetAddr: targetAddr,
		targetLen: targetLen, exfil: exfil}
	t.orig = k.SetSyscallHandler(kernel.SysRead, t.handler)
	return t
}

// ICTamper is the installed interrupted-state tampering hook.
type ICTamper struct {
	k          *kernel.Kernel
	orig       kernel.SyscallHandler
	victimPID  int
	targetAddr uint64
	targetLen  int
	exfil      string
	armed      bool
	// Outcome:
	Fired    bool
	GotFrame bool
	FrameErr string
}

// Arm enables the hook for the next victim read.
func (t *ICTamper) Arm() { t.armed = true }

// Uninstall restores the read handler.
func (t *ICTamper) Uninstall() { t.k.SetSyscallHandler(kernel.SysRead, t.orig) }

func (t *ICTamper) handler(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
	if t.armed && p.PID == t.victimPID {
		t.armed = false
		t.Fired = true
		rf, ok := ic.(core.RawFramer)
		if !ok {
			// Virtual Ghost: the saved state lives in VM memory and
			// the kernel's handle has no raw accessor. There is no
			// other path.
			t.FrameErr = "interrupt context is opaque (saved in SVA VM memory)"
		} else {
			t.GotFrame = true
			victim := p
			addr, target, length, exfil := uint64(0x00005e11c0de0000), t.targetAddr, t.targetLen, t.exfil
			file, _ := k.OpenKernelFile(exfil)
			fd := k.InstallRawFD(victim, file)
			k.PlantCode(addr, func(vp *kernel.Proc, args []uint64) {
				secret := vp.Read(target, length)
				buf := vp.Alloc(length)
				vp.Write(buf, secret)
				vp.Syscall(kernel.SysWrite, uint64(fd), buf, uint64(length))
			})
			// Redirect the interrupted program counter: when the trap
			// returns, the CPU resumes in the exploit.
			rf.RawFrame().Regs.RIP = addr
		}
	}
	return t.orig(k, p, ic)
}

// IagoMmapAttack (paper §2.2.5): replace the mmap handler so it returns
// a pointer into the victim's own ghost partition.
func IagoMmapAttack(k *kernel.Kernel) (restore func()) {
	orig := k.SetSyscallHandler(kernel.SysMmap, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
		return uint64(hw.GhostBase) + 0x1000
	})
	return func() { k.SetSyscallHandler(kernel.SysMmap, orig) }
}

// RandomnessAttack (paper §2.2.5): make the OS randomness source return
// the same value forever.
func RandomnessAttack(k *kernel.Kernel) (restore func()) {
	k.SetDevRandomHook(func() uint64 { return 4 }) // chosen by fair dice roll
	return func() { k.SetDevRandomHook(nil) }
}

// SwapInspectionAttack (paper §2.2.2): the OS swaps out the victim's
// ghost page and greps its swap storage for the secret.
func SwapInspectionAttack(k *kernel.Kernel, victim *kernel.Proc, ghostVA hw.Virt, secret []byte) Result {
	r := Result{Name: "swap-inspect"}
	blob, ok := k.SwappedGhostBlob(victim.PID, ghostVA)
	if !ok {
		r.Detail = "page not swapped out"
		return r
	}
	if bytes.Contains(blob, secret) {
		r.Succeeded = true
		r.Detail = "swap blob contains the plaintext secret"
	} else {
		r.Detail = fmt.Sprintf("swap blob is opaque (%d bytes, no plaintext)", len(blob))
	}
	return r
}

// BuildAsmModuleIR builds a module containing hand-written assembly —
// the kind of kernel code that is "not even expressible" once all OS
// code must pass through the Virtual Ghost compiler.
func BuildAsmModuleIR() *vir.Module {
	m := vir.NewModule("asmmod")
	b := vir.NewFunction("asm_backdoor", 0)
	b.Asm("mov %cr3, %rax")
	b.Ret(vir.Imm(0))
	if err := m.AddFunc(b.Fn()); err != nil {
		panic(err)
	}
	return m
}

// AsmModuleAttack attempts to load the assembly-bearing module.
func AsmModuleAttack(k *kernel.Kernel) Result {
	r := Result{Name: "asm-module"}
	if _, err := k.LoadModule(BuildAsmModuleIR()); err != nil {
		r.Detail = fmt.Sprintf("translator refused: %v", err)
		return r
	}
	r.Succeeded = true
	r.Detail = "module with inline assembly loaded"
	return r
}

// BuildROPModuleIR builds a kernel function with a classic stack smash:
// it overwrites its own return address with an attacker-chosen target
// and returns.
func BuildROPModuleIR() *vir.Module {
	m := vir.NewModule("ropmod")
	b := vir.NewFunction("vulnerable", 1)
	// The "overflow": corrupt the return address with param 0.
	b.Call(vir.CorruptReturnIntrinsic, b.Param(0))
	b.Ret(vir.Imm(0))
	if err := m.AddFunc(b.Fn()); err != nil {
		panic(err)
	}

	// An indirect-call sibling: call through an attacker-controlled
	// function pointer.
	c := vir.NewFunction("call_fptr", 1)
	c.CallInd(c.Param(0))
	c.Ret(vir.Imm(0))
	if err := m.AddFunc(c.Fn()); err != nil {
		panic(err)
	}
	return m
}

// buildGadgetIR is the attacker's payload function, planted outside
// kernel code space (e.g. in sprayed memory): it logs a marker proving
// arbitrary kernel control flow.
func buildGadgetIR() *vir.Function {
	b := vir.NewFunction("rop_gadget", 0)
	// The marker "PWNED!" as little-endian bytes.
	b.Call("klog_acc", b.Const(0x0000_21_44_45_4e_57_50)) // "PWNED!"
	b.Call("klog_flush")
	b.Ret(vir.Imm(0))
	return b.Fn()
}

// gadgetAddr is a user-space address where the payload is sprayed.
const gadgetAddr = 0x0000414141410000

// ROPAttack (kernel CFI test): load a module with a stack-smashable
// function, plant a gadget outside kernel code space, smash the return
// address, and see whether control reaches the gadget.
func ROPAttack(k *kernel.Kernel, indirect bool) Result {
	name := "rop-return"
	fn := "vulnerable"
	if indirect {
		name = "fptr-hijack"
		fn = "call_fptr"
	}
	r := Result{Name: name}
	mod, err := k.LoadModule(BuildROPModuleIR())
	if err != nil {
		r.Detail = fmt.Sprintf("module rejected: %v", err)
		return r
	}
	k.HAL.CodeSpace().PlantForeign(gadgetAddr, buildGadgetIR())
	_, err = k.RunModuleFunc(mod, fn, gadgetAddr)
	if err != nil {
		r.Detail = fmt.Sprintf("control transfer blocked: %v", err)
		return r
	}
	if k.Console().Contains("PWNED") {
		r.Succeeded = true
		r.Detail = "gadget executed with kernel privilege"
	} else {
		r.Detail = "transfer completed but gadget did not run"
	}
	return r
}
