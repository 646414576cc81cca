// Package kernel implements a FreeBSD-like monolithic kernel on top of
// the SVA-OS HAL (internal/core): processes and a scheduler, a syscall
// table, signals, a VFS with a disk-backed UFS-like file system and
// buffer cache, pipes, a socket/network stack over the simulated NIC,
// mmap with demand paging, ghost-page swap, and dynamically loadable
// kernel modules expressed in the virtual instruction set.
//
// The kernel is deliberately *unaware* of which HAL it booted on: the
// same code runs on the native baseline and under Virtual Ghost. All of
// its accesses to user/ghost virtual memory go through the HAL's
// compiled-kernel accessors (KLoad/Copyin/...), its hardware
// manipulation goes through the HAL operations, and its abstract
// data-structure work is charged through KAccess — so the cost and the
// security differences between configurations emerge from the HAL, not
// from kernel branches.
package kernel

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/vir"
)

// Syscall numbers (FreeBSD-flavoured).
const (
	SysExit    = 1
	SysFork    = 2
	SysRead    = 3
	SysWrite   = 4
	SysOpen    = 5
	SysClose   = 6
	SysWait4   = 7
	SysUnlink  = 10
	SysGetpid  = 20
	SysKill    = 37
	SysSigact  = 46
	SysSigret  = 47
	SysPipe    = 42
	SysSelect  = 93
	SysFsync   = 95
	SysSocket  = 97
	SysConnect = 98
	SysBind    = 104
	SysListen  = 106
	SysAccept  = 30
	SysSendTo  = 133
	SysRecv    = 29
	SysExecve  = 59
	SysMmap    = 477
	SysMunmap  = 73
	SysLseek   = 478
	SysMkdir   = 136
	SysRmdir   = 137
	SysStat    = 188
	SysSbrk    = 569
	SysSwapOut = 570 // OS-initiated ghost swap (experiment hook)
	SysRandom  = 571 // /dev/random-style OS randomness (attackable)
	SysYield   = 572
	// Event-driven networking (DESIGN.md §19).
	SysPollCreate = 573 // allocate an empty poll set, returns its fd
	SysPollCtl    = 574 // (pollfd, op, fd, events) add/mod/del a member
	SysPollWait   = 575 // (pollfd, evbuf, maxev, timeout) wait for readiness
	SysNonblock   = 576 // (fd, on) toggle a socket's blocking discipline
	SysSockTimeo  = 577 // (fd, cycles) connect timeout / idle auto-close
)

// Errno values returned (negated) by syscalls.
const (
	EOK     = 0
	EPERM   = 1
	ENOENT  = 2
	EBADF   = 9
	ENOMEM  = 12
	EFAULT  = 14
	EEXIST  = 17
	ENOTDIR = 20
	EISDIR  = 21
	EINVAL  = 22
	EMFILE  = 24
	ENOSPC  = 28
	ESPIPE  = 29
	EPIPE   = 32
	// EAGAIN: a nonblocking operation would block, or a resource pool
	// (ephemeral ports) is exhausted — retry later.
	EAGAIN    = 35
	ETIMEDOUT = 60
	// ECONNREFUSED: the destination port answered a SYN with an RST
	// (nobody listening there).
	ECONNREFUSED = 61
	ENOTEMPTY    = 66
	ENOSYS       = 78
)

// errno encodes an error as a negative return value.
func errno(e uint64) uint64 { return ^e + 1 } // two's complement negation

// IsErr reports whether a syscall return value encodes an errno, and
// which.
func IsErr(ret uint64) (uint64, bool) {
	if int64(ret) < 0 {
		return -uint64(int64(ret)), true
	}
	return 0, false
}

// SyscallHandler implements one system call. Handlers run in process
// context on the calling process's goroutine, exactly like a monolithic
// kernel's top half.
type SyscallHandler func(k *Kernel, p *Proc, ic core.IContext) uint64

// PlantedFunc is attacker-injected "machine code" sitting at an address
// in some process's address space: if control ever reaches that
// address, this runs with the process's user privileges. Virtual
// Ghost's CFI and sva.ipush.function checks exist to make sure control
// never does.
type PlantedFunc func(p *Proc, args []uint64)

// Kernel is one booted operating-system instance.
type Kernel struct {
	HAL core.HAL
	M   *hw.Machine
	FS  *FS
	Net *NetStack

	procs   map[int]*Proc
	nextPID int
	cpus    []*cpuRun // per-CPU run queues (see sched.go)
	// lastCPU is the last CPU's id, set at boot; no scheduler reads
	// it. It stays because snapshot images record it.
	lastCPU int
	cur     *Proc
	// syscalls is this kernel's dispatch table, indexed by syscall
	// number: Boot copies the handlers from syscallTable, and
	// SetSyscallHandler replaces one.
	syscalls []SyscallHandler
	modules  []*Module
	coreMod  *Module

	// programs is the installed-binary registry (what the file system
	// + loader would provide): name -> signed binary + entry function.
	programs map[string]*Program

	// planted is the registry of attacker-injected code addresses.
	planted map[uint64]PlantedFunc

	// swappedGhost holds encrypted ghost swap blobs the OS stored
	// (keyed by pid then page VA).
	swappedGhost map[int]map[hw.Virt][]byte

	// devRandomHook, when set, intercepts the OS randomness syscall —
	// the Iago randomness attack installs one.
	devRandomHook func() uint64

	// modLogBuf accumulates bytes module code logs via the klog
	// intrinsics.
	modLogBuf []byte

	// Module execution: the pre-linked engine, per kernel so step
	// budgets and code caches follow the kernel's lifetime. modEnvs
	// caches the module Env per address-space root so steady-state
	// module calls allocate nothing on the host.
	engine  *vir.Engine
	modEnvs map[hw.Frame]vir.Env

	// intrinsics is the kernel-service linkage table for module code,
	// built once at boot (see modintr.go).
	intrinsics map[string]IntrinsicHandler

	// epochMode is true on multi-CPU machines: the scheduler runs the
	// deterministic epoch/barrier protocol (epoch.go) instead of the
	// single-CPU serial loop.
	epochMode bool

	stats Stats
	// sysProf is the per-syscall cycle histogram (see profile.go),
	// indexed like syscalls and allocated by the first syscall.
	sysProf []*SyscallCycles

	// readBuf is the scratch that file, socket and /dev/random reads
	// fill and return as a view (FileOps.Read); sysRead copies the view
	// out before anything else reads, and sysStat builds its 16-byte
	// result there and copies it out the same way. Reads size it by
	// the data they produce, never by the request: a file read is
	// clamped to the file (at most MaxFileSize), a socket read to the
	// bytes buffered (at most the receive window), a /dev/random read
	// to maxRandomRead.
	readBuf []byte
}

// Stats counts kernel events for tests and experiment reporting.
type Stats struct {
	Syscalls       uint64
	ContextSwitch  uint64
	PageFaults     uint64
	SignalsSent    uint64
	SignalsBlocked uint64
	ForksCreated   uint64
	// IPIs counts rescheduling interrupts the kernel sent for
	// cross-CPU signal delivery; Steals counts run-queue migrations by
	// idle CPUs. Both stay zero on single-CPU machines.
	IPIs   uint64
	Steals uint64
}

// Program is an installed executable: the signed binary plus its entry
// point (the Go closure standing in for its machine code).
type Program struct {
	Bin  *core.Binary
	Main func(p *Proc)
}

// frameSource adapts the kernel's physical allocator to the HAL.
type frameSource struct{ m *hw.Memory }

func (fs frameSource) GetFrame() (hw.Frame, error) { return fs.m.AllocFrame(hw.FrameUserData) }
func (fs frameSource) PutFrame(f hw.Frame) {
	// Returned frames rejoin the free pool.
	if err := fs.m.FreeFrame(f); err != nil {
		panic(fmt.Sprintf("kernel: PutFrame: %v", err))
	}
}

// ErrNoProgram is returned by exec for unknown program names.
var ErrNoProgram = errors.New("kernel: no such installed program")

// Boot initializes a kernel on the HAL: registers the trap handler and
// frame source, builds the syscall table, creates the file system (with
// a fresh mkfs on the machine's disk), and starts the network stack.
func Boot(hal core.HAL) (*Kernel, error) {
	k := &Kernel{
		HAL:          hal,
		M:            hal.Machine(),
		procs:        make(map[int]*Proc),
		nextPID:      1,
		programs:     make(map[string]*Program),
		planted:      make(map[uint64]PlantedFunc),
		swappedGhost: make(map[int]map[hw.Virt][]byte),
		engine:       vir.NewEngine(),
		modEnvs:      make(map[hw.Frame]vir.Env),
	}
	k.cpus = make([]*cpuRun, k.M.NumCPUs())
	for i := range k.cpus {
		k.cpus[i] = &cpuRun{id: i}
	}
	k.lastCPU = len(k.cpus) - 1
	k.epochMode = len(k.cpus) > 1
	k.installIntrinsics()
	hal.RegisterFrameSource(frameSource{m: k.M.Mem})
	hal.RegisterTrapHandler(k.trapEntry)
	fs, err := Mkfs(k, k.M.Disk)
	if err != nil {
		return nil, fmt.Errorf("kernel: mkfs: %w", err)
	}
	k.FS = fs
	k.Net = NewNetStack(k)
	// Join the clock's idle protocol: when every kernel sharing the
	// clock is idle but timers are armed, the schedulers skip virtual
	// time to the earliest expiry (sched.go idleAdvance).
	k.M.Clock.RegisterIdleSource(k)
	k.installSyscalls()
	// The kernel's own IR routines pass through the translator like
	// every other piece of OS code.
	if err := k.loadCoreModule(); err != nil {
		return nil, err
	}
	return k, nil
}

// syscallTable is the one list of system calls: number, conventional
// name and handler.
var syscallTable = [...]struct {
	num  uint64
	name string
	h    SyscallHandler
}{
	{SysExit, "exit", sysExit},
	{SysFork, "fork", sysFork},
	{SysRead, "read", sysRead},
	{SysWrite, "write", sysWrite},
	{SysOpen, "open", sysOpen},
	{SysClose, "close", sysClose},
	{SysWait4, "wait4", sysWait4},
	{SysUnlink, "unlink", sysUnlink},
	{SysGetpid, "getpid", sysGetpid},
	{SysKill, "kill", sysKill},
	{SysSigact, "sigaction", sysSigaction},
	{SysSigret, "sigreturn", sysSigreturn},
	{SysPipe, "pipe", sysPipe},
	{SysSelect, "select", sysSelect},
	{SysFsync, "fsync", sysFsync},
	{SysExecve, "execve", sysExecve},
	{SysMmap, "mmap", sysMmap},
	{SysMunmap, "munmap", sysMunmap},
	{SysLseek, "lseek", sysLseek},
	{SysMkdir, "mkdir", sysMkdir},
	{SysRmdir, "rmdir", sysRmdir},
	{SysStat, "stat", sysStat},
	{SysSbrk, "sbrk", sysSbrk},
	{SysSwapOut, "swapout", sysSwapOut},
	{SysRandom, "random", sysRandom},
	{SysYield, "yield", sysYield},
	{SysSocket, "socket", sysSocket},
	{SysConnect, "connect", sysConnect},
	{SysBind, "bind", sysBind},
	{SysListen, "listen", sysListen},
	{SysAccept, "accept", sysAccept},
	{SysSendTo, "sendto", sysSendTo},
	{SysRecv, "recv", sysRecv},
	{SysPollCreate, "pollcreate", sysPollCreate},
	{SysPollCtl, "pollctl", sysPollCtl},
	{SysPollWait, "pollwait", sysPollWait},
	{SysNonblock, "nonblock", sysNonblock},
	{SysSockTimeo, "socktimeo", sysSockTimeo},
}

// installSyscalls copies syscallTable into this kernel's dispatch
// slice, sized by the highest number.
func (k *Kernel) installSyscalls() {
	var top uint64
	for _, s := range syscallTable {
		top = max(top, s.num)
	}
	k.syscalls = make([]SyscallHandler, top+1)
	for _, s := range syscallTable {
		k.syscalls[s.num] = s.h
	}
}

// SetSyscallHandler replaces a syscall handler and returns the previous
// one. This is the hook the rootkit module uses to interpose on read()
// (paper §7); it is also how legitimate modules extend the kernel. The
// number must lie within the dispatch table.
func (k *Kernel) SetSyscallHandler(num uint64, h SyscallHandler) SyscallHandler {
	if num >= uint64(len(k.syscalls)) {
		panic(fmt.Sprintf("kernel: syscall %d is past the dispatch table (%d entries)", num, len(k.syscalls)))
	}
	old := k.syscalls[num]
	k.syscalls[num] = h
	return old
}

// trapEntry is the kernel's first-level trap handler, invoked by the
// HAL after its own entry work.
func (k *Kernel) trapEntry(ic core.IContext, kind hw.TrapKind, info uint64) {
	p := k.cur
	if p == nil {
		panic("kernel: trap with no current process")
	}
	switch kind {
	case hw.TrapSyscall:
		k.stats.Syscalls++
		num := ic.SyscallNum()
		// Stamp trace events inside the dispatch with the syscall
		// context, and profile its cycle cost. Both are host-side
		// bookkeeping: no cycles are charged for them.
		ppid, pctx := k.M.Clock.Context()
		k.M.Clock.SetContext(int32(p.PID), uint32(num))
		start := k.M.Clock.Cycles()
		// Syscall dispatch is an indirect call through the table, and
		// the entry path touches the thread, credential, and syscall-
		// args structures.
		k.HAL.OnIndirectCall(1)
		k.HAL.KAccess(workSyscallDispatch)
		var h SyscallHandler
		if num < uint64(len(k.syscalls)) {
			h = k.syscalls[num]
		}
		if h == nil {
			ic.SetRet(errno(ENOSYS))
		} else {
			ic.SetRet(h(k, p, ic))
		}
		k.recordSyscall(num, k.M.Clock.Cycles()-start)
		k.M.Clock.SetContext(ppid, pctx)
	case hw.TrapPageFault:
		k.stats.PageFaults++
		k.handleFault(p, hw.Virt(info), ic)
	case hw.TrapTimer, hw.TrapDevice:
		// Quantum bookkeeping happens at yield points.
		k.HAL.KAccess(workTimerTick)
	case hw.TrapIllegal:
		k.forceExit(p, 128+4)
	}
	// Signal delivery happens on the return-to-user path (paper
	// §4.6.1); this may modify the interrupt context via the HAL.
	k.deliverSignals(p, ic)
}

// InstallProgram registers an executable. On Virtual Ghost the binary
// must have been produced by the trusted installer (core.Installer);
// exec validates it before the program may run.
func (k *Kernel) InstallProgram(name string, bin *core.Binary, main func(p *Proc)) {
	k.programs[name] = &Program{Bin: bin, Main: main}
}

// Program returns an installed program.
func (k *Kernel) Program(name string) (*Program, bool) {
	pr, ok := k.programs[name]
	return pr, ok
}

// PlantCode registers attacker-controlled code at an address. It models
// writing exploit bytes into a mapped buffer: the code is now *present*
// in the address space; whether control can ever be transferred to it
// is what the defences decide.
func (k *Kernel) PlantCode(addr uint64, fn PlantedFunc) {
	k.planted[addr] = fn
}

// Console is a shortcut to the machine console.
func (k *Kernel) Console() *hw.Console { return k.M.Console }

// Stats returns a copy of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Module is a loaded kernel module: its translation, whose functions
// RunModuleFunc runs on the kernel's engine.
type Module struct {
	Name        string
	Translation moduleTranslation
	kernel      *Kernel
	// irDigest is the SHA-256 of the module's canonical IR text,
	// recorded at load time. The ordered (name, digest) list is the
	// kernel's code-epoch identity: a snapshot taken on one kernel may
	// only be restored onto a kernel whose module history matches
	// (snapstate.go).
	irDigest [32]byte
}

// moduleTranslation abstracts over compiler.Translation to keep the
// kernel decoupled from compiler internals it does not need.
type moduleTranslation interface {
	Entry(name string) (uint64, bool)
	Verify() bool
	// Admitted reports whether the static admission checker proved the
	// sandbox/CFI invariants on the emitted code (or the pipeline
	// declares no admission requirement, as in the native baseline).
	Admitted() bool
}

// LoadModule submits module IR to the HAL's translator — under Virtual
// Ghost this applies sandboxing and CFI and refuses inline assembly —
// and links the module's intrinsic imports against kernel services.
// The returned Module can invoke module functions via RunModuleFunc.
func (k *Kernel) LoadModule(m *vir.Module) (*Module, error) {
	tr, err := k.HAL.TranslateModule(m)
	if err != nil {
		return nil, fmt.Errorf("kernel: module %q rejected by translator: %w", m.Name, err)
	}
	mod, err := k.admitModule(m.Name, tr)
	if err != nil {
		return nil, err
	}
	mod.irDigest = sha256.Sum256([]byte(vir.FormatModule(m)))
	k.modules = append(k.modules, mod)
	return mod, nil
}

// admitModule gates a finished translation into the kernel's module
// list: the code must carry an admission proof (or come from a
// pipeline with no admission requirement) and its signature must still
// match — a translation altered after signing is refused.
func (k *Kernel) admitModule(name string, tr moduleTranslation) (*Module, error) {
	if !tr.Admitted() {
		return nil, fmt.Errorf("kernel: module %q refused: translation carries no admission proof", name)
	}
	if !tr.Verify() {
		return nil, fmt.Errorf("kernel: module %q refused: translation signature mismatch", name)
	}
	return &Module{Name: name, Translation: tr, kernel: k}, nil
}

// RunModuleFunc executes a loaded module function in the context of the
// current process's address space, with kernel intrinsics available.
func (k *Kernel) RunModuleFunc(mod *Module, fn string, args ...uint64) (uint64, error) {
	addr, ok := mod.Translation.Entry(fn)
	if !ok {
		return 0, fmt.Errorf("kernel: module %q has no function %q", mod.Name, fn)
	}
	f, ok := k.HAL.CodeSpace().FuncByAddr(addr)
	if !ok {
		return 0, fmt.Errorf("kernel: module function %q not in code space", fn)
	}
	root := hw.Frame(0)
	if k.cur != nil {
		root = k.cur.root
	}
	return k.engine.Call(k.moduleEnv(root), f, args...)
}

// moduleEnv returns the (cached) execution environment for module code
// under the given address-space root. Envs only capture the HAL and the
// root, so they stay valid for the kernel's lifetime.
func (k *Kernel) moduleEnv(root hw.Frame) vir.Env {
	if env, ok := k.modEnvs[root]; ok {
		return env
	}
	env := k.HAL.ModuleEnv(root, k.moduleIntrinsics)
	k.modEnvs[root] = env
	return env
}
