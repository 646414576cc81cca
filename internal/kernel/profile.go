package kernel

import "sort"

// SyscallCycles aggregates the virtual-cycle cost of one syscall
// number: how many times it was dispatched and the total/min/max cycles
// spent between entering the dispatch path and the handler returning
// (signal delivery and the trap exit are excluded — they are shared
// return-path work, not attributable to one call).
type SyscallCycles struct {
	Num    uint64
	Name   string
	Count  uint64
	Cycles uint64
	Min    uint64
	Max    uint64
}

// Mean returns the average cycles per call.
func (s SyscallCycles) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Count)
}

// recordSyscall folds one dispatch's cycle cost into the per-syscall
// profile. Host-side bookkeeping: charges nothing.
func (k *Kernel) recordSyscall(num, cycles uint64) {
	if k.sysProf == nil {
		k.sysProf = make(map[uint64]*SyscallCycles)
	}
	sc, ok := k.sysProf[num]
	if !ok {
		sc = &SyscallCycles{Num: num, Name: SyscallName(num), Min: cycles}
		k.sysProf[num] = sc
	}
	sc.Count++
	sc.Cycles += cycles
	if cycles < sc.Min {
		sc.Min = cycles
	}
	if cycles > sc.Max {
		sc.Max = cycles
	}
}

// SyscallProfile returns the per-syscall cycle histogram, most
// expensive (by total cycles) first.
func (k *Kernel) SyscallProfile() []SyscallCycles {
	out := make([]SyscallCycles, 0, len(k.sysProf))
	for _, sc := range k.sysProf {
		out = append(out, *sc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Num < out[j].Num
	})
	return out
}

var syscallNames = map[uint64]string{
	SysExit: "exit", SysFork: "fork", SysRead: "read", SysWrite: "write",
	SysOpen: "open", SysClose: "close", SysWait4: "wait4",
	SysUnlink: "unlink", SysGetpid: "getpid", SysKill: "kill",
	SysSigact: "sigaction", SysSigret: "sigreturn", SysPipe: "pipe",
	SysSelect: "select", SysFsync: "fsync", SysSocket: "socket",
	SysConnect: "connect", SysBind: "bind", SysListen: "listen",
	SysAccept: "accept", SysSendTo: "sendto", SysRecv: "recv",
	SysExecve: "execve", SysMmap: "mmap", SysMunmap: "munmap",
	SysLseek: "lseek", SysMkdir: "mkdir", SysRmdir: "rmdir",
	SysStat: "stat", SysSbrk: "sbrk", SysSwapOut: "swapout",
	SysRandom: "random", SysYield: "yield",
	SysPollCreate: "pollcreate", SysPollCtl: "pollctl",
	SysPollWait: "pollwait", SysNonblock: "nonblock",
	SysSockTimeo: "socktimeo",
}

// SyscallName returns the conventional name for a syscall number, or
// "sys<num>" for unknown numbers (e.g. module-installed syscalls).
func SyscallName(num uint64) string {
	if n, ok := syscallNames[num]; ok {
		return n
	}
	return "sys" + itoa(num)
}

// itoa is a tiny allocation-light uint64 formatter.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
