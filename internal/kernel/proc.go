package kernel

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
)

// Signal numbers.
const (
	SIGKILL = 9
	SIGSEGV = 11
	SIGPIPE = 13
	SIGUSR1 = 30
	SIGUSR2 = 31
)

// User address-space layout.
const (
	UserText     hw.Virt = 0x0000000000400000
	UserHeapBase hw.Virt = 0x0000000010000000
	UserMmapBase hw.Virt = 0x00007f0000000000
	UserStackTop hw.Virt = 0x00007ffffffff000
	stackPages           = 16
	// maxFDs caps the per-process descriptor table. The table is a
	// grow-on-demand slice, so the cap is a resource limit (RLIMIT_NOFILE
	// analogue), not an allocation: a C10K server holding tens of
	// thousands of sockets pays only for the slots it uses.
	maxFDs = 32768
)

// procState is a process's scheduler state.
type procState uint8

const (
	procEmbryo procState = iota
	procRunnable
	procRunning
	procBlocked
	procZombie
	procDead
)

// control-flow sentinels for unwinding user code on the process
// goroutine.
type procSentinel int

const (
	exitSentinel procSentinel = iota
	execSentinel
)

// vmaKind classifies a virtual memory area.
type vmaKind uint8

const (
	vmaHeap vmaKind = iota
	vmaStack
	vmaAnon
	vmaFile
)

// VMA is one mapped region of a process's traditional address space.
type VMA struct {
	Base    hw.Virt
	NPages  int
	Kind    vmaKind
	ino     uint32 // backing inode for vmaFile
	fileOff int64
}

func (v *VMA) contains(va hw.Virt) bool {
	return va >= v.Base && va < v.Base+hw.Virt(v.NPages)*hw.PageSize
}

// HandlerFunc is user code invoked as a signal handler.
type HandlerFunc func(p *Proc, args []uint64)

// Proc is one process (with one thread, as in the paper's workloads).
// The exported methods below the scheduler section are its *user-mode
// runtime*: they execute on the process's own goroutine, exactly one of
// which runs at any time.
type Proc struct {
	PID  int
	Name string

	k    *Kernel
	tid  core.ThreadID
	root hw.Frame
	// cpu is the process's home CPU (run-queue index); work stealing
	// migrates it.
	cpu int

	state  procState
	cond   func() bool // block predicate while procBlocked
	runCh  chan struct{}
	yldCh  chan struct{}
	mainFn func(p *Proc)

	// Epoch-scheduler state (epoch.go; unused on single-CPU machines).
	// onCPU is the CPU this process is currently dispatched on — unlike
	// cpu (the run-queue home), it names the hw.CPU whose register
	// file, TLB and clock shard this process's user segments use, so
	// user-mode paths read it instead of M.Cur(), which names the CPU
	// the scheduler last switched. kdepth counts nested kernel entries
	// (a signal handler issuing a syscall does not re-park). parkWhy
	// tells the scheduler why the goroutine last parked; inflight marks
	// the process as occupying a CPU slot so no second slot can pick it
	// up.
	onCPU    int
	kdepth   int
	parkWhy  parkReason
	inflight bool

	// execNext holds the program image to switch to after execve.
	execNext func(p *Proc)
	// pendingChildMain carries the child closure across the fork
	// syscall.
	pendingChildMain func(p *Proc)

	parent   *Proc
	children map[int]*Proc
	exitCode int
	killed   bool

	// memory
	vmas     []*VMA
	pages    map[hw.Virt]hw.Frame // materialized user pages
	heapPgs  int
	mmapNext hw.Virt
	allocPtr hw.Virt // bump pointer for the user heap
	ghostBrk hw.Virt // bump pointer for ghost allocations

	// files: descriptor table, grown on demand up to maxFDs. fdHint is
	// the lowest possibly-free slot — every slot below it is occupied —
	// so allocFD keeps POSIX lowest-free semantics at amortized O(1)
	// instead of scanning the table per open.
	fds    []*FileDesc
	fdHint int
	// pollSets are the poll sets this process created: their members
	// are numbers in this table, so allocFD and closeFD report every
	// change of a slot to them.
	pollSets []*PollSet
	// inBuf is the copyin scratch (see Kernel.copyin).
	inBuf []byte

	// signals (kernel side)
	sigHandlers map[int]uint64
	sigPending  []int

	// handlerFns is the user-side registry mapping code addresses to
	// the Go closures that stand in for the code there.
	handlerFns map[uint64]HandlerFunc
	nextCode   uint64
}

// newProc allocates the kernel-side process structure and its address
// space with an initial stack.
func (k *Kernel) newProc(name string, parent *Proc, main func(p *Proc)) (*Proc, error) {
	root, err := k.HAL.NewAddressSpace()
	if err != nil {
		return nil, err
	}
	pid := k.nextPID
	k.nextPID++
	p := &Proc{
		PID:         pid,
		Name:        name,
		k:           k,
		tid:         core.ThreadID(pid),
		root:        root,
		state:       procEmbryo,
		runCh:       make(chan struct{}),
		yldCh:       make(chan struct{}),
		mainFn:      main,
		parent:      parent,
		children:    make(map[int]*Proc),
		pages:       make(map[hw.Virt]hw.Frame),
		mmapNext:    UserMmapBase,
		allocPtr:    UserHeapBase,
		ghostBrk:    hw.GhostBase,
		sigHandlers: make(map[int]uint64),
		handlerFns:  make(map[uint64]HandlerFunc),
		nextCode:    uint64(UserText) + 0x1000,
	}
	// Heap and stack VMAs exist from the start; pages materialize on
	// demand (page faults).
	p.vmas = append(p.vmas,
		&VMA{Base: UserHeapBase, NPages: 1 << 16, Kind: vmaHeap},
		&VMA{Base: UserStackTop - stackPages*hw.PageSize, NPages: stackPages, Kind: vmaStack},
	)
	// Home-CPU affinity: spread processes across the machine's CPUs
	// round-robin by PID (on one CPU everything lands on CPU 0).
	p.cpu = (pid - 1) % k.M.NumCPUs()
	k.procs[pid] = p
	k.schedAdd(p)
	if parent != nil {
		parent.children[pid] = p
	}
	return p, nil
}

// Spawn creates and starts a root process running main (the init-style
// entry used by experiments and the examples).
func (k *Kernel) Spawn(name string, main func(p *Proc)) (*Proc, error) {
	p, err := k.newProc(name, nil, main)
	if err != nil {
		return nil, err
	}
	p.start()
	return p, nil
}

// SpawnProgram starts an installed program: the binary is validated by
// the HAL (on Virtual Ghost a bad signature refuses to start) before
// the image runs.
func (k *Kernel) SpawnProgram(name string) (*Proc, error) {
	prog, ok := k.programs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoProgram, name)
	}
	p, err := k.newProc(name, nil, prog.Main)
	if err != nil {
		return nil, err
	}
	if err := k.HAL.LoadBinary(p.tid, prog.Bin); err != nil {
		p.state = procDead
		k.schedRemove(p)
		delete(k.procs, p.PID)
		return nil, err
	}
	p.start()
	return p, nil
}

// start launches the process goroutine and marks it runnable.
func (p *Proc) start() {
	p.state = procRunnable
	go p.top()
}

// top is the process goroutine body: it runs the program image,
// handling the exec/exit unwind sentinels, and finally parks the
// process as a zombie.
func (p *Proc) top() {
	<-p.runCh
	for {
		action := p.runImage()
		if action == execSentinel && p.execNext != nil {
			p.mainFn = p.execNext
			p.execNext = nil
			continue
		}
		break
	}
	// If the image returned without exit(), perform a normal exit. The
	// teardown is kernel work (it frees frames and scrubs ghost pages),
	// so it runs as a kernel segment on epoch-scheduled machines.
	if p.state != procZombie {
		p.enterKernel()
		p.sysExitInternal(p.exitCode)
		p.exitKernel()
	}
	// Final yield: hand the CPU back to the scheduler forever.
	p.state = procZombie
	p.parkWhy = parkEnd
	p.yldCh <- struct{}{}
}

// runImage runs the current program image, converting unwind panics
// into sentinel results.
func (p *Proc) runImage() (s procSentinel) {
	s = exitSentinel
	defer func() {
		if r := recover(); r != nil {
			if sv, ok := r.(procSentinel); ok {
				s = sv
				return
			}
			panic(r)
		}
	}()
	p.mainFn(p)
	return exitSentinel
}

// --- scheduler-facing internals ---------------------------------------

// parkReason tells the scheduler why a process goroutine handed back
// control (only consulted by the epoch scheduler, epoch.go).
type parkReason uint8

const (
	// parkEnd: the dispatch is over — the process yielded, blocked, or
	// became a zombie. Its CPU slot is freed.
	parkEnd parkReason = iota
	// parkKernel: user code reached a HAL entry (syscall, trap, ghost
	// or key operation) and wants a kernel segment. The process stays
	// in its slot; the serial kernel phase resumes it at the barrier.
	parkKernel
	// parkUserResume: the kernel segment finished; the process wants to
	// continue user execution in the next epoch's user phase.
	parkUserResume
)

// enterKernel marks the transition from user execution into kernel/HAL
// work. On an epoch-scheduled machine (NumCPUs > 1) the goroutine
// parks until the serial kernel phase at the epoch barrier resumes it,
// so kernel work — shared clock, shared kernel state, IPIs, TLB
// shootdowns — runs in CPU-id order on the merged global clock, never
// inside a user phase. Nested entries (a signal handler issuing a syscall inside a
// kernel segment) do not re-park. On single-CPU machines this is a
// counter increment and nothing else.
func (p *Proc) enterKernel() {
	p.kdepth++
	if p.kdepth > 1 || !p.k.epochMode {
		return
	}
	p.parkWhy = parkKernel
	p.yldCh <- struct{}{}
	<-p.runCh
}

// exitKernel closes the outermost kernel entry. On an epoch-scheduled
// machine the goroutine parks until the next epoch's user phase
// resumes it (user execution must not continue inside the serial
// kernel phase).
func (p *Proc) exitKernel() {
	p.kdepth--
	if p.kdepth > 0 || !p.k.epochMode {
		return
	}
	p.parkWhy = parkUserResume
	p.yldCh <- struct{}{}
	<-p.runCh
}

// block parks the process until cond becomes true. Must be called on
// the process goroutine (from user code or a syscall handler running in
// process context).
func (p *Proc) block(cond func() bool) {
	if cond() {
		return
	}
	p.state = procBlocked
	p.cond = cond
	p.parkWhy = parkEnd
	p.yldCh <- struct{}{}
	<-p.runCh
	p.state = procRunning
	p.checkKilled()
}

// yield voluntarily gives up the CPU.
func (p *Proc) yield() {
	p.state = procRunnable
	p.parkWhy = parkEnd
	p.yldCh <- struct{}{}
	<-p.runCh
	p.state = procRunning
	p.checkKilled()
}

// checkKilled unwinds the process if it was force-killed while off CPU.
func (p *Proc) checkKilled() {
	if p.killed && p.state != procZombie {
		p.sysExitInternal(128 + SIGKILL)
		panic(exitSentinel)
	}
}

// --- user-mode runtime --------------------------------------------------

// Kernel returns the kernel this process runs on (used by the libc and
// application layers).
func (p *Proc) Kernel() *Kernel { return p.k }

// TID returns the HAL thread ID.
func (p *Proc) TID() core.ThreadID { return p.tid }

// Root returns the address-space root (used by attack demonstrations
// that operate on the victim's address space from kernel context).
func (p *Proc) Root() hw.Frame { return p.root }

// Syscall issues a system call from user mode. It also runs the
// post-trap user work: a pending pushed signal handler, preemption.
// The whole body — trap, handler dispatch, pushed signal handlers,
// preemption check — is one kernel segment: on an epoch-scheduled
// machine it runs serially at the epoch barrier.
func (p *Proc) Syscall(num uint64, args ...uint64) uint64 {
	var av [6]uint64
	copy(av[:], args)
	p.enterKernel()
	ret := p.k.HAL.Syscall(num, av)
	// If the saved program counter was redirected while we were in the
	// kernel (interrupted-state tampering), the CPU resumes wherever it
	// now points — including attacker-planted code. Under Virtual
	// Ghost the saved state is unreachable, so this never triggers.
	if rip := p.k.M.Cur().Regs.RIP; rip != 0 {
		if fn, ok := p.k.planted[rip]; ok {
			p.k.M.Cur().Regs.RIP = 0
			fn(p, nil)
		}
	}
	p.runPendingHandler()
	p.checkKilled()
	if p.k.M.Timer.Fired() && p.state == procRunning {
		p.yield()
	}
	p.exitKernel()
	return ret
}

// runPendingHandler executes a handler pushed onto this thread's
// interrupt context by sva.ipush.function (signal delivery). Control
// transfers to whatever code lives at the pushed address: the
// process's registered handlers, or — on the native configuration —
// attacker-planted code.
func (p *Proc) runPendingHandler() {
	addr, args, ok := p.k.HAL.PoppedHandler(p.tid)
	if !ok {
		return
	}
	// The signal trampoline and handler prologue/epilogue cost user
	// cycles on every configuration.
	p.Compute(2800)
	if fn, ok := p.handlerFns[addr]; ok {
		fn(p, args)
	} else if fn, ok := p.k.planted[addr]; ok {
		fn(p, args)
	}
	// sigreturn: restore the pre-signal interrupt context.
	var av [6]uint64
	p.k.HAL.Syscall(SysSigret, av)
}

// RegisterCode places user code (a Go closure standing in for machine
// code) at a fresh address in the process image and returns the
// address. Signal handlers are registered this way; the libc wrapper
// then calls sva.permitFunction on the address.
func (p *Proc) RegisterCode(fn HandlerFunc) uint64 {
	addr := p.nextCode
	p.nextCode += 0x40
	p.handlerFns[addr] = fn
	return addr
}

// PermitFunction registers addr with the VM as a valid signal-handler
// target (sva.permitFunction). Applications call this via the libc
// signal wrappers.
func (p *Proc) PermitFunction(addr uint64) error {
	p.enterKernel()
	defer p.exitKernel()
	return p.k.HAL.PermitFunction(p.tid, addr)
}

// AllocGM maps npages of ghost memory at the top of the process's ghost
// partition bump allocator and returns the base address (the allocgm
// instruction; the libc ghost malloc sits on top of this). Like every
// HAL entry from user code, it is a kernel segment on epoch-scheduled
// machines: the VM's mapping work runs serially at the barrier.
func (p *Proc) AllocGM(npages int) (hw.Virt, error) {
	p.enterKernel()
	defer p.exitKernel()
	va := p.ghostBrk
	if err := p.k.HAL.AllocGhost(p.tid, p.root, va, npages); err != nil {
		return 0, err
	}
	p.ghostBrk += hw.Virt(npages) * hw.PageSize
	return va, nil
}

// FreeGM releases ghost pages (freegm). Kernel segment: the free runs
// the TLB-shootdown protocol, which must happen at the epoch barrier.
func (p *Proc) FreeGM(va hw.Virt, npages int) error {
	p.enterKernel()
	defer p.exitKernel()
	return p.k.HAL.FreeGhost(p.tid, p.root, va, npages)
}

// GetKey fetches the application key from the VM (sva.getKey).
func (p *Proc) GetKey() ([]byte, error) {
	p.enterKernel()
	defer p.exitKernel()
	return p.k.HAL.GetKey(p.tid)
}

// TrustedRandom reads the VM's trusted random-number instruction. The
// hardware RNG is shared machine state, so this too is a kernel
// segment on epoch-scheduled machines, and its draw order is the
// barrier's CPU-id order.
func (p *Proc) TrustedRandom() uint64 {
	p.enterKernel()
	defer p.exitKernel()
	return p.k.HAL.Random()
}

// Exit terminates the process with the given code.
func (p *Proc) Exit(code int) {
	p.Syscall(SysExit, uint64(code))
	panic(exitSentinel)
}

// Fork creates a child process that runs childMain, returning the child
// PID (fork+closure stands in for fork's control-flow duplication,
// which Go cannot express; the kernel-side work is the real fork path).
func (p *Proc) Fork(childMain func(c *Proc)) int {
	p.pendingChildMain = childMain
	ret := p.Syscall(SysFork)
	p.pendingChildMain = nil
	if _, bad := IsErr(ret); bad {
		return -1
	}
	return int(ret)
}

// Exec replaces the process image with the named installed program.
// It does not return on success.
func (p *Proc) Exec(name string) error {
	pathPtr := p.PushString(name)
	ret := p.Syscall(SysExecve, pathPtr)
	if e, bad := IsErr(ret); bad {
		return fmt.Errorf("kernel: execve %q: errno %d", name, e)
	}
	panic(execSentinel)
}

// Wait blocks until a child exits and returns its PID and exit code.
func (p *Proc) Wait() (pid, code int) {
	statusPtr := p.Alloc(8)
	ret := p.Syscall(SysWait4, statusPtr)
	if _, bad := IsErr(ret); bad {
		return -1, -1
	}
	return int(ret), int(p.Load(statusPtr, 8))
}

// --- user memory access -------------------------------------------------

// Alloc bump-allocates n bytes of traditional user heap (8-byte
// aligned) and returns the address. Pages materialize via page faults.
func (p *Proc) Alloc(n int) uint64 {
	n = (n + 7) &^ 7
	va := p.allocPtr
	p.allocPtr += hw.Virt(n)
	return uint64(va)
}

// PushString copies a Go string into fresh user heap memory (with a NUL
// terminator) and returns its address — how user code materializes path
// arguments.
func (p *Proc) PushString(s string) uint64 {
	va := p.Alloc(len(s) + 1)
	b := append([]byte(s), 0)
	p.Write(va, b)
	return va
}

// faultingAccess retries a user memory access across page faults,
// raising each fault to the kernel.
func (p *Proc) faultingAccess(do func() error) {
	for i := 0; i < 64; i++ {
		err := do()
		if err == nil {
			return
		}
		var f *hw.Fault
		if errors.As(err, &f) {
			// The fault itself is a kernel segment: the handler mutates
			// page tables and the frame allocator, so on epoch-scheduled
			// machines it runs serially at the barrier.
			p.enterKernel()
			p.k.HAL.Trap(hw.TrapPageFault, uint64(f.VA))
			p.runPendingHandler()
			p.checkKilled()
			p.exitKernel()
			continue
		}
		panic(fmt.Sprintf("kernel: user access failed: %v", err))
	}
	// Unresolvable fault: the kernel will have killed the process.
	p.checkKilled()
	panic(fmt.Sprintf("kernel: pid %d unresolvable fault", p.PID))
}

// cpuHW returns the hardware CPU this process is dispatched on. User
// memory accesses must go through it (not M.Cur()): during a parallel
// user phase several processes are in flight at once and M.Cur() names
// whichever CPU the serial scheduler touched last.
func (p *Proc) cpuHW() *hw.CPU { return p.k.M.CPUs[p.onCPU] }

// Read copies n bytes from user memory into a fresh Go slice.
func (p *Proc) Read(va uint64, n int) []byte {
	var out []byte
	p.faultingAccess(func() error {
		b, err := p.cpuHW().CopyFromVirt(hw.Virt(va), n)
		if err != nil {
			return err
		}
		out = b
		return nil
	})
	return out
}

// ReadInto copies len(dst) bytes from user memory into dst: Read
// without the allocation, with the same charges. A fault restarts the
// copy, as it does for Read.
func (p *Proc) ReadInto(va uint64, dst []byte) {
	p.faultingAccess(func() error {
		return p.cpuHW().CopyFromVirtInto(hw.Virt(va), dst)
	})
}

// Write copies bytes into user memory.
func (p *Proc) Write(va uint64, b []byte) {
	p.faultingAccess(func() error {
		return p.cpuHW().CopyToVirt(hw.Virt(va), b)
	})
}

// Load reads a size-byte little-endian value from user memory.
func (p *Proc) Load(va uint64, size int) uint64 {
	var out uint64
	p.faultingAccess(func() error {
		v, err := p.cpuHW().LoadVirt(hw.Virt(va), size)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	return out
}

// Store writes a size-byte little-endian value to user memory.
func (p *Proc) Store(va uint64, size int, v uint64) {
	p.faultingAccess(func() error {
		return p.cpuHW().StoreVirt(hw.Virt(va), size, v)
	})
}

// Compute charges n cycles of pure user computation (on this process's
// CPU shard during an epoch's user phase).
func (p *Proc) Compute(cycles uint64) {
	p.k.M.Clock.ChargeOn(p.onCPU, hw.TagCompute, cycles)
}

// ComputeCrypt charges n cycles of user-level cryptography (the
// ghosting libc's AES-GCM work), so breakdowns separate crypto from
// plain computation.
func (p *Proc) ComputeCrypt(cycles uint64) {
	p.k.M.Clock.ChargeOn(p.onCPU, hw.TagCrypt, cycles)
}
