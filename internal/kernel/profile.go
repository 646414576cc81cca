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
// profile. Host-side bookkeeping: charges nothing. A number past the
// dispatch table has no slot and goes unprofiled.
func (k *Kernel) recordSyscall(num, cycles uint64) {
	if num >= uint64(len(k.syscalls)) {
		return
	}
	if k.sysProf == nil {
		k.sysProf = make([]*SyscallCycles, len(k.syscalls))
	}
	sc := k.sysProf[num]
	if sc == nil {
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
	var out []SyscallCycles
	for _, sc := range k.sysProf {
		if sc != nil {
			out = append(out, *sc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Num < out[j].Num
	})
	return out
}

// SyscallName returns the conventional name for a syscall number, or
// "sys<num>" for numbers syscallTable does not list.
func SyscallName(num uint64) string {
	for _, s := range syscallTable {
		if s.num == num {
			return s.name
		}
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
