package main

import (
	_ "embed"
	"fmt"

	"repro"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vir"
)

// The kmodule workload: kernel IR executed by the vir engine, with the
// §4 sandboxing and CFI instrumentation on Virtual Ghost. It calls the
// kernel's own IR routines (KMemset, KChecksum, KMemcmp) and a module
// shipped with the benchmark (dispatch.vir) that fills buffers and
// folds them through a function-pointer table, so CFI checks and the
// engine's inline caches run. No syscalls, almost no host allocation.

//go:embed dispatch.vir
var dispatchSource string

const (
	kmodSteps   = 480
	kmodMinSize = 2048
	kmodMaxSize = 6144
	// Kernel scratch addresses (the direct map under Virtual Ghost).
	kmodTable = 0xffffff8000100000
	kmodBufA  = kmodTable + 0x1000
	kmodBufB  = kmodTable + 0x4000
)

// Step kinds; each is one third of a round, in seeded order.
const (
	stepChecksum = iota // fill A, KChecksum(A)
	stepDispatch        // fill A, dispatch(table, A)
	stepCompare         // fill A and B alike, KMemcmp equal, poke B, KMemcmp differ
	numStepKinds
)

// kmodStep is one seeded step with its Go reference results.
type kmodStep struct {
	kind     int
	size     int
	seed     uint64
	poke     int  // compare: offset of the byte changed in B
	pokeVal  byte // compare: a value different from A[poke]
	state    uint64
	checksum uint32
	folded   uint64
}

// xorshiftFill is the Go reference of the module's fill: the bytes it
// stores and the generator state it returns.
func xorshiftFill(seed uint64, n int) ([]byte, uint64) {
	b := make([]byte, n)
	s := seed
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
	return b, s
}

// refChecksum is the Go reference of the kernel's kchecksum.
func refChecksum(b []byte) uint32 {
	var acc uint64
	for _, c := range b {
		acc = ((acc + uint64(c)) * 0x101) & 0xffffffff
	}
	return uint32(acc)
}

// refDispatch is the Go reference of the module's dispatch: each byte
// selects one of four table entries by its low two bits.
func refDispatch(b []byte) uint64 {
	var acc uint64
	for _, c := range b {
		v := uint64(c)
		switch c & 3 {
		case 0:
			acc = (acc + v) & 0xffffffff
		case 1:
			acc = (acc ^ (v * 0x9e3779b1)) & 0xffffffff
		case 2:
			acc = ((acc<<5 | acc>>27) + v) & 0xffffffff
		case 3:
			acc = (acc*(v|1) + 0x7f) & 0xffffffff
		}
	}
	return acc
}

func kmodPlan(seed uint64) []kmodStep {
	rng := newRNG(seed ^ 0x6d0d)
	steps := make([]kmodStep, kmodSteps)
	for i := range steps {
		st := &steps[i]
		st.kind = i % numStepKinds
		st.size = kmodMinSize + rng.intn(kmodMaxSize-kmodMinSize+1)
		st.seed = rng.next() | 1
		var data []byte
		data, st.state = xorshiftFill(st.seed, st.size)
		st.checksum = refChecksum(data)
		st.folded = refDispatch(data)
		st.poke = rng.intn(st.size)
		st.pokeVal = ^data[st.poke]
	}
	for i := len(steps) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}

// kmodWarmSteps is what set-up runs to warm the module: the first step
// of each kind of one fixed plan, the same for every seed, so setup_s
// does not move with the seed's step sizes.
func kmodWarmSteps() []kmodStep {
	var warm []kmodStep
	var seen [numStepKinds]bool
	for _, st := range kmodPlan(0) {
		if !seen[st.kind] {
			seen[st.kind] = true
			warm = append(warm, st)
		}
	}
	return warm
}

type kmodSide struct {
	mode     repro.Mode
	sys      *repro.System
	mod      *kernel.Module
	ledger   hw.Ledger
	checks   int
	failures int
	errs     []string
}

type kmodInstance struct {
	steps []kmodStep
	tr    *tracer
	sides []*kmodSide
}

func kmoduleWorkload(seed uint64) setupFunc {
	steps := kmodPlan(seed)
	warm := kmodWarmSteps()
	return func(tr *tracer) (instance, error) {
		inst := &kmodInstance{steps: steps, tr: tr}
		for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost} {
			s, err := boot(tr, mode, seed, nil)
			if err != nil {
				return nil, err
			}
			m, err := vir.ParseModule(dispatchSource)
			if err != nil {
				return nil, fmt.Errorf("kmodule: %w", err)
			}
			var mod *kernel.Module
			tr.within(kindLoad, func() { mod, err = s.Kernel.LoadModule(m) })
			if err != nil {
				return nil, fmt.Errorf("kmodule: load: %w", err)
			}
			side := &kmodSide{mode: mode, sys: s, mod: mod}
			// Warm-up: install the table and run one step of each kind.
			if _, err := s.Kernel.RunModuleFunc(mod, "settable", kmodTable); err != nil {
				return nil, fmt.Errorf("kmodule: settable: %w", err)
			}
			for _, st := range warm {
				side.step(nil, st)
			}
			if side.failures > 0 {
				return nil, fmt.Errorf("kmodule: warm-up failed: %v", side.errs)
			}
			side.checks = 0
			inst.sides = append(inst.sides, side)
		}
		return inst, nil
	}
}

// call runs one module function inside a vir.call span.
func (s *kmodSide) call(tr *tracer, fn string, args ...uint64) (uint64, error) {
	var v uint64
	var err error
	tr.measured(kindVir, func() { v, err = s.sys.Kernel.RunModuleFunc(s.mod, fn, args...) })
	return v, err
}

// fail records a wrong result; callers count every check in s.checks.
func (s *kmodSide) fail(format string, args ...any) {
	s.failures++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// step runs one step and checks every result against the Go reference.
// Failure messages are formatted only on failure, so a passing step
// allocates nothing on the host.
func (s *kmodSide) step(tr *tracer, st kmodStep) {
	k := s.sys.Kernel
	n := uint64(st.size)
	s.checks++
	if got, err := s.call(tr, "fill", kmodBufA, n, st.seed); err != nil || got != st.state {
		s.fail("fill A: state %#x (%v), want %#x", got, err, st.state)
	}
	var err error
	switch st.kind {
	case stepChecksum:
		var sum uint32
		tr.measured(kindVir, func() { sum, err = k.KChecksum(kmodBufA, st.size) })
		s.checks++
		if err != nil || sum != st.checksum {
			s.fail("kchecksum %#x (%v), want %#x", sum, err, st.checksum)
		}
	case stepDispatch:
		s.checks++
		if got, err := s.call(tr, "dispatch", kmodTable, kmodBufA, n); err != nil || got != st.folded {
			s.fail("dispatch %#x (%v), want %#x", got, err, st.folded)
		}
	case stepCompare:
		s.checks += 4
		if got, err := s.call(tr, "fill", kmodBufB, n, st.seed); err != nil || got != st.state {
			s.fail("fill B: state %#x (%v), want %#x", got, err, st.state)
		}
		var eq bool
		tr.measured(kindVir, func() { eq, err = k.KMemcmp(kmodBufA, kmodBufB, st.size) })
		if err != nil || !eq {
			s.fail("kmemcmp of equal buffers: equal=%v (%v)", eq, err)
		}
		tr.measured(kindVir, func() { err = k.KMemset(kmodBufB+uint64(st.poke), st.pokeVal, 1) })
		if err != nil {
			s.fail("kmemset: %v", err)
		}
		tr.measured(kindVir, func() { eq, err = k.KMemcmp(kmodBufA, kmodBufB, st.size) })
		if err != nil || eq {
			s.fail("kmemcmp of buffers differing at %d: equal=%v (%v)", st.poke, eq, err)
		}
	}
}

func (km *kmodInstance) run() {
	for _, s := range km.sides {
		clock := s.sys.Machine.Clock
		pre := clock.Ledger()
		for _, st := range km.steps {
			s.step(km.tr, st)
			yard.tick()
		}
		s.ledger = clock.Ledger().Sub(pre)
	}
}

func (km *kmodInstance) check() roundResult {
	res := roundResult{ledgers: map[string]hw.Ledger{}}
	for _, s := range km.sides {
		name := modeName(s.mode)
		res.ledgers[name] = s.ledger
		res.ops += s.checks
		res.failed += s.failures
		if s.failures > 0 {
			res.problem("%s: %d wrong module results: %v", name, s.failures, s.errs)
		}
	}
	nat, vg := km.sides[0].ledger.Total(), km.sides[1].ledger.Total()
	if nat > 0 {
		res.overhead = float64(vg) / float64(nat)
	}
	return res
}

func (km *kmodInstance) discard() {}
