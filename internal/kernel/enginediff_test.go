package kernel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vir"
)

// These tests run module code through the full kernel pipeline
// (translator → code space → RunModuleFunc) on two identically booted
// systems, one per execution engine, and assert the engines are
// indistinguishable: same results, same errors, and the same
// virtual-clock advance for every call.

// bootEnginePair boots two kernels in the given mode, the first on the
// pre-linked engine and the second on the reference interpreter.
func bootEnginePair(t *testing.T, mode core.Mode) (*Kernel, *Kernel) {
	t.Helper()
	kL := bootKernel(t, mode)
	kR := bootKernel(t, mode)
	kR.reference = true
	return kL, kR
}

// runOnBoth invokes the same module function on both kernels and
// asserts result, error, and clock-delta and ledger-delta equality.
// Returns the common result.
func runOnBoth(t *testing.T, kL, kR *Kernel, modOf func(*Kernel) *Module, fn string, args ...uint64) uint64 {
	t.Helper()
	c0, l0 := kL.M.Clock.Cycles(), kL.M.Clock.Ledger()
	vL, errL := kL.RunModuleFunc(modOf(kL), fn, args...)
	dL, lL := kL.M.Clock.Cycles()-c0, kL.M.Clock.Ledger().Sub(l0)

	c0, l0 = kR.M.Clock.Cycles(), kR.M.Clock.Ledger()
	vR, errR := kR.RunModuleFunc(modOf(kR), fn, args...)
	dR, lR := kR.M.Clock.Cycles()-c0, kR.M.Clock.Ledger().Sub(l0)

	errs := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if vL != vR || errs(errL) != errs(errR) {
		t.Fatalf("%s: engines disagree: linked (%#x, %v) vs reference (%#x, %v)",
			fn, vL, errL, vR, errR)
	}
	if dL != dR {
		t.Fatalf("%s: clock divergence: linked %d cycles, reference %d", fn, dL, dR)
	}
	if lL != lR {
		t.Fatalf("%s: ledger divergence: linked %v, reference %v", fn, lL, lR)
	}
	return vL
}

func TestEnginesAgreeOnCoreModule(t *testing.T) {
	for _, mode := range modes() {
		kL, kR := bootEnginePair(t, mode)
		core := func(k *Kernel) *Module { return k.coreMod }

		const buf = 0xffffff8000100000 // kernel scratch
		runOnBoth(t, kL, kR, core, "kmemset", buf, 0xab, 64)
		runOnBoth(t, kL, kR, core, "kmemset", buf+64, 0xab, 64)
		if eq := runOnBoth(t, kL, kR, core, "kmemcmp", buf, buf+64, 64); eq != 0 {
			t.Fatalf("[%v] kmemcmp of equal buffers = %d", mode, eq)
		}
		sum := runOnBoth(t, kL, kR, core, "kchecksum", buf, 64)
		if sum == 0 {
			t.Fatalf("[%v] kchecksum = 0", mode)
		}
		runOnBoth(t, kL, kR, core, "kstrlen", buf+200)

		// The engine reads and writes the direct map's pages itself
		// (vir.DirectPages): accesses that straddle a page, read a page
		// never written, or alternate between two buffers' pages must
		// cost what Env.Load and Env.Store charge.
		runOnBoth(t, kL, kR, core, "kmemset", buf+0x1000-20, 0x5c, 64)
		runOnBoth(t, kL, kR, core, "kmemset", buf+0x3000-20, 0x5c, 64)
		if eq := runOnBoth(t, kL, kR, core, "kmemcmp", buf+0x1000-20, buf+0x3000-20, 64); eq != 0 {
			t.Fatalf("[%v] kmemcmp across pages = %d", mode, eq)
		}
		if sum := runOnBoth(t, kL, kR, core, "kchecksum", buf+0x8000, 32); sum != 0 {
			t.Fatalf("[%v] kchecksum of a page never written = %#x", mode, sum)
		}
	}
}

// TestEnginesAgreeAcrossModuleLoad is the kernel-level linked-code
// invalidation scenario: a module calls a symbol that is unresolved at
// first (dispatching to a registered kernel service), then a later
// module load binds that symbol in the code space. The pre-linked
// engine must notice the epoch change and re-link; the reference
// interpreter re-resolves every call by construction.
func TestEnginesAgreeAcrossModuleLoad(t *testing.T) {
	kL, kR := bootEnginePair(t, core.ModeVirtualGhost)

	callerSrc := `module callermod
func call_helper(0 params) {
entry:
  %r0 = call helper()
  ret %r0
}
`
	helperSrc := `module helpermod
func helper(0 params) {
entry:
  ret 0x2
}
`
	for _, k := range []*Kernel{kL, kR} {
		k.RegisterIntrinsic("helper", func(*Kernel, []uint64) (uint64, error) {
			return 1, nil
		})
	}

	load := func(k *Kernel, src string) *Module {
		m, err := vir.ParseModule(src)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := k.LoadModule(m)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	callerL, callerR := load(kL, callerSrc), load(kR, callerSrc)
	caller := func(k *Kernel) *Module {
		if k == kL {
			return callerL
		}
		return callerR
	}

	// Unbound: both engines dispatch to the kernel service.
	if got := runOnBoth(t, kL, kR, caller, "call_helper"); got != 1 {
		t.Fatalf("before load: call_helper = %d, want 1 (intrinsic)", got)
	}
	// Run twice so the linked engine is serving from its cache.
	runOnBoth(t, kL, kR, caller, "call_helper")

	// Bind helper in the code space; the epoch moves and cached linked
	// code must be flushed.
	load(kL, helperSrc)
	load(kR, helperSrc)
	if got := runOnBoth(t, kL, kR, caller, "call_helper"); got != 2 {
		t.Fatalf("after load: call_helper = %d, want 2 (module function)", got)
	}
}

// TestEnginesAgreeOnModulePanic pins error propagation out of kernel
// intrinsics through both engines.
func TestEnginesAgreeOnModulePanic(t *testing.T) {
	kL, kR := bootEnginePair(t, core.ModeVirtualGhost)
	src := `module panics
func go_down(1 params) {
entry:
  %r1 = call panic(%r0)
  ret %r1
}
`
	mods := map[*Kernel]*Module{}
	for _, k := range []*Kernel{kL, kR} {
		m, err := vir.ParseModule(src)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := k.LoadModule(m)
		if err != nil {
			t.Fatal(err)
		}
		mods[k] = mod
	}
	c0 := kL.M.Clock.Cycles()
	_, errL := kL.RunModuleFunc(mods[kL], "go_down", 7)
	dL := kL.M.Clock.Cycles() - c0
	c0 = kR.M.Clock.Cycles()
	_, errR := kR.RunModuleFunc(mods[kR], "go_down", 7)
	dR := kR.M.Clock.Cycles() - c0
	if errL == nil || errR == nil || errL.Error() != errR.Error() {
		t.Fatalf("panic errors differ: %v vs %v", errL, errR)
	}
	if !strings.Contains(errL.Error(), "module panic (7)") {
		t.Fatalf("unexpected panic error: %v", errL)
	}
	if dL != dR {
		t.Fatalf("clock divergence on panic: %d vs %d", dL, dR)
	}
}

// TestKernelFusionStats checks that a booted kernel runs module code on
// the fusing engine: its loop routines come out of the linker with
// superinstructions, on every configuration.
func TestKernelFusionStats(t *testing.T) {
	for _, mode := range modes() {
		k := bootKernel(t, mode)
		const buf = 0xffffff8000100000 // kernel scratch
		if err := k.KMemset(buf, 0x5a, 64); err != nil {
			t.Fatalf("[%v] kmemset: %v", mode, err)
		}
		if _, err := k.KChecksum(buf, 64); err != nil {
			t.Fatalf("[%v] kchecksum: %v", mode, err)
		}
		if st := k.engine.Fusion(); st.SitesFused == 0 {
			t.Errorf("[%v] default-booted kernel fused no sites in its core loops", mode)
		}
	}
}
