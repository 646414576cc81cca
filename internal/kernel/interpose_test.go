package kernel

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestSetSyscallHandlerRoundTrip pins the interposition contract the §7
// rootkit (and legitimate extension modules) rely on: replacing a
// handler returns the previous one, the replacement can delegate to it,
// and restoring the returned handler brings back identical behaviour.
func TestSetSyscallHandlerRoundTrip(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)

	getpid := func() uint64 {
		var got uint64
		if _, err := k.Spawn("t", func(p *Proc) {
			got = p.Syscall(SysGetpid)
		}); err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		k.RunUntilIdle()
		return got
	}
	base := getpid()
	if base == 0 {
		t.Fatal("getpid returned 0 before interposition")
	}

	// Replace: the wrapper must receive the original handler back.
	calls := 0
	var prev SyscallHandler
	prev = k.SetSyscallHandler(SysGetpid, func(k *Kernel, p *Proc, ic core.IContext) uint64 {
		calls++
		return prev(k, p, ic)
	})
	if prev == nil {
		t.Fatal("SetSyscallHandler returned nil previous handler")
	}

	// The wrapper interposes but, delegating, preserves semantics
	// (PIDs increment per spawn, so compare against the expected next).
	if got := getpid(); got != base+1 {
		t.Errorf("interposed getpid = %d, want %d", got, base+1)
	}
	if calls != 1 {
		t.Errorf("wrapper ran %d times, want 1", calls)
	}

	// Restore the returned handler: behaviour identical, wrapper dead.
	if back := k.SetSyscallHandler(SysGetpid, prev); back == nil {
		t.Error("restoring returned nil previous handler")
	}
	if got := getpid(); got != base+2 {
		t.Errorf("restored getpid = %d, want %d", got, base+2)
	}
	if calls != 1 {
		t.Errorf("wrapper ran after restore (calls = %d)", calls)
	}

	// Only numbers inside the dispatch table can be interposed on.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetSyscallHandler past the table did not panic")
			}
		}()
		k.SetSyscallHandler(1<<20, prev)
	}()
}

// TestSyscallProfile checks the per-syscall cycle histogram: counts
// match the dispatches made, entries carry names, and min/mean/max are
// ordered.
func TestSyscallProfile(t *testing.T) {
	k := bootKernel(t, core.ModeVirtualGhost)
	const n = 5
	if _, err := k.Spawn("t", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Syscall(SysGetpid)
		}
	}); err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	k.RunUntilIdle()

	prof := k.SyscallProfile()
	if len(prof) == 0 {
		t.Fatal("empty syscall profile after dispatches")
	}
	var got *SyscallCycles
	for i := range prof {
		if prof[i].Num == SysGetpid {
			got = &prof[i]
		}
	}
	if got == nil {
		t.Fatal("getpid missing from profile")
	}
	if got.Name != "getpid" {
		t.Errorf("profile name = %q, want getpid", got.Name)
	}
	// The runtime exits the process with an implicit exit syscall, so
	// getpid itself must have exactly n dispatches.
	if got.Count != n {
		t.Errorf("getpid count = %d, want %d", got.Count, n)
	}
	if got.Min == 0 || got.Min > got.Max {
		t.Errorf("min/max unordered: min=%d max=%d", got.Min, got.Max)
	}
	if m := got.Mean(); m < float64(got.Min) || m > float64(got.Max) {
		t.Errorf("mean %f outside [min=%d, max=%d]", m, got.Min, got.Max)
	}
	// Profile is sorted by descending total cycles.
	for i := 1; i < len(prof); i++ {
		if prof[i].Cycles > prof[i-1].Cycles {
			t.Errorf("profile unsorted at %d: %d > %d", i, prof[i].Cycles, prof[i-1].Cycles)
		}
	}
}

// TestEverySyscallHasAName checks the syscall table: every entry has a
// name and a handler and its own number, so -breakdown and
// SyscallProfile never print a bare "sys<num>" for a built-in call and
// no call shadows another.
func TestEverySyscallHasAName(t *testing.T) {
	seen := make(map[uint64]string)
	for _, s := range syscallTable {
		if s.name == "" {
			t.Errorf("syscall %d has no name (prints as %s)", s.num, SyscallName(s.num))
		}
		if s.h == nil {
			t.Errorf("syscall %d (%s) has no handler", s.num, s.name)
		}
		if prev, dup := seen[s.num]; dup {
			t.Errorf("syscall %d listed twice: %s and %s", s.num, prev, s.name)
		}
		seen[s.num] = s.name
	}
}

// TestSnapshotProfileOutsideTable: a snapshot's syscall profile is
// restored by number, and an image that profiles a number past the
// dispatch table is refused before the target kernel changes.
func TestSnapshotProfileOutsideTable(t *testing.T) {
	src := bootKernel(t, core.ModeNative)
	if _, err := src.Spawn("t", func(p *Proc) { p.Syscall(SysGetpid) }); err != nil {
		t.Fatal(err)
	}
	src.RunUntilIdle()
	snap, err := src.CaptureKernelSnap()
	if err != nil {
		t.Fatal(err)
	}
	dst := bootKernel(t, core.ModeNative)
	if err := dst.ApplyKernelSnap(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.SyscallProfile(), src.SyscallProfile(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored profile %+v, want %+v", got, want)
	}

	snap.SysProf = append(snap.SysProf, SyscallCycles{Num: 1 << 40, Name: "bogus", Count: 1})
	fresh := bootKernel(t, core.ModeNative)
	if err := fresh.ApplyKernelSnap(snap); err == nil {
		t.Fatal("snapshot profiling syscall 2^40 was accepted")
	}
	if fresh.nextPID != 1 || len(fresh.SyscallProfile()) != 0 {
		t.Errorf("refused snapshot changed the kernel: nextPID=%d profile=%+v", fresh.nextPID, fresh.SyscallProfile())
	}
}
