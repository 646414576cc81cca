package compiler

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/compiler/check"
	"repro/internal/hw"
	"repro/internal/vir"
)

// buildPresetFlagModule is the hostile-author bypass shape: IR carrying
// pre-set instrumentation flags (so trusting passes skip their work)
// around a raw unmasked store.
func buildPresetFlagModule() *vir.Module {
	m := vir.NewModule("liar")
	b := vir.NewFunction("poke", 2)
	b.Store(b.Param(0), b.Param(1), 8)
	b.Ret(vir.Imm(0))
	f := b.Fn()
	f.Sandboxed = true
	f.Labeled = true
	f.Translated = true
	if err := m.AddFunc(f); err != nil {
		panic(err)
	}
	return m
}

func TestTranslateClearsPresetFlags(t *testing.T) {
	m := buildPresetFlagModule()
	tr, err := NewTranslator(true).Translate(m)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	// The pre-set flags must not have suppressed instrumentation: the
	// emitted code carries the mask and the label, and is admitted.
	out := tr.Module.Func("poke")
	if out.CountOps(vir.OpMaskGhost) != 1 {
		t.Errorf("store not masked despite cleared flags:\n%s", vir.Format(out))
	}
	if first := out.Entry().Instrs[0]; first.Op != vir.OpCFILabel || first.Imm != KernelCFILabel {
		t.Errorf("entry not labeled despite cleared flags:\n%s", vir.Format(out))
	}
	if !tr.Admitted() {
		t.Error("properly re-instrumented module should be admitted")
	}
	// The caller's module keeps its (bogus) flags — Translate works on
	// a private clone.
	if !m.Func("poke").Sandboxed {
		t.Error("input module mutated")
	}
}

func TestPresetFlagBypassCaughtByChecker(t *testing.T) {
	// Defense in depth: replay the *old* buggy pipeline (clone without
	// clearing flags, so both passes skip) and show the admission
	// checker refuses the result — even if Translate ever regressed,
	// the bypass could not reach code space.
	code := buildPresetFlagModule().Clone()
	SandboxModule(code)
	CFIModule(code)
	err := check.Verify(code, NewTranslator(true).AdmissionConfig())
	if err == nil {
		t.Fatal("checker admitted flag-bypassed uninstrumented code")
	}
	var cerr *check.Error
	if !errors.As(err, &cerr) {
		t.Fatalf("want *check.Error, got %T", err)
	}
	got := map[string]bool{}
	for _, d := range cerr.Diags {
		got[d.Code] = true
	}
	for _, want := range []string{check.CodeUnmaskedStore, check.CodeMissingLabel, check.CodeRawRet} {
		if !got[want] {
			t.Errorf("missing %s in %v", want, cerr.Diags)
		}
	}
}

func TestTranslateRefusesPlantedForeignCallTarget(t *testing.T) {
	tr := NewTranslator(true)

	// Plant a gadget outside kernel code space under a linkable name —
	// the PlantForeign shape the attack suite uses for injected code.
	g := vir.NewFunction("rop_gadget", 0)
	g.Ret(vir.Imm(0x41))
	gm := vir.NewModule("gadget")
	if err := gm.AddFunc(g.Fn()); err != nil {
		t.Fatal(err)
	}
	tr.Space.PlantForeign(0x0000414141410000, gm.Funcs[0])

	m := vir.NewModule("trampoline")
	b := vir.NewFunction("jump", 0)
	b.Ret(b.Call("rop_gadget"))
	if err := m.AddFunc(b.Fn()); err != nil {
		t.Fatal(err)
	}
	_, err := tr.Translate(m)
	if !errors.Is(err, ErrNotAdmissible) {
		t.Fatalf("want ErrNotAdmissible for call into planted code, got %v", err)
	}
	if !strings.Contains(err.Error(), check.CodeBadImport) {
		t.Errorf("refusal should name the forbidden import: %v", err)
	}

	// Genuinely unresolved symbols stay admissible: they are linked at
	// run time against kernel intrinsics (klog_acc, cur_pid, ...).
	m2 := vir.NewModule("intrinsics")
	b2 := vir.NewFunction("logit", 1)
	b2.Ret(b2.Call("klog_acc", b2.Param(0)))
	if err := m2.AddFunc(b2.Fn()); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Translate(m2); err != nil {
		t.Fatalf("unresolved intrinsic import refused: %v", err)
	}

	// Symbols resolving inside kernel code space are fine too.
	m3 := vir.NewModule("caller")
	b3 := vir.NewFunction("relay", 1)
	b3.Ret(b3.Call("logit", b3.Param(0)))
	if err := m3.AddFunc(b3.Fn()); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Translate(m3); err != nil {
		t.Fatalf("cross-module kernel call refused: %v", err)
	}
}

func TestChargeVerifyCost(t *testing.T) {
	m := vir.NewModule("m")
	if err := m.AddFunc(buildKernelFunc("f")); err != nil {
		t.Fatal(err)
	}
	clock := &hw.Clock{}
	tr := NewTranslator(true)
	tr.Clock = clock
	out, err := tr.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range out.Module.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	if want := uint64(n) * hw.CostVerifyPerOp; clock.Cycles() != want {
		t.Errorf("verify charged %d cycles, want %d (%d instrs × %d)",
			clock.Cycles(), want, n, hw.CostVerifyPerOp)
	}
	// Without a clock the translator still works (standalone use).
	if _, err := NewTranslator(true).Translate(m); err != nil {
		t.Errorf("clockless translate failed: %v", err)
	}
}

func TestAdmittedAcrossPipelines(t *testing.T) {
	m := vir.NewModule("m")
	if err := m.AddFunc(buildKernelFunc("f")); err != nil {
		t.Fatal(err)
	}
	vg, err := NewTranslator(true).Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !vg.Admitted() {
		t.Error("verified VG translation must be admitted")
	}
	nat, err := NewTranslator(false).Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !nat.Admitted() {
		t.Error("native pipeline declares no admission requirement; must be admitted")
	}
}

func TestMmapMaskPassIdempotentAndModuleWrapper(t *testing.T) {
	build := func() *vir.Module {
		m := vir.NewModule("app")
		b := vir.NewFunction("use_mmap", 0)
		ptr := b.Call("mmap", vir.Imm(0), vir.Imm(4096))
		v := b.Load(ptr, 8)
		b.Ret(v)
		if err := m.AddFunc(b.Fn()); err != nil {
			panic(err)
		}
		return m
	}

	m := build()
	if diags := check.CheckMmapMaskedModule(m); len(diags) == 0 {
		t.Fatal("raw mmap dereference not flagged before the pass")
	}
	MmapMaskModule(m)
	f := m.Func("use_mmap")
	if !f.MmapMasked {
		t.Error("pass did not set MmapMasked")
	}
	masks := f.CountOps(vir.OpMaskGhost)
	MmapMaskModule(m) // second run must be a no-op
	MmapMaskPass(f)
	if got := f.CountOps(vir.OpMaskGhost); got != masks {
		t.Errorf("pass not idempotent: %d masks, then %d", masks, got)
	}
	if diags := check.CheckMmapMaskedModule(m); len(diags) != 0 {
		t.Errorf("instrumented mmap usage still flagged: %v", diags)
	}

	// The flag survives the text round-trip, so re-instrumentation of
	// stored application IR stays idempotent too.
	rt, err := vir.ParseModule(vir.FormatModule(m))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if !rt.Func("use_mmap").MmapMasked {
		t.Error("MmapMasked flag lost in text round-trip")
	}
}
