package repro_test

// BenchmarkExperiments regenerates the paper's evaluation (§8) and
// security matrix (§7); the benches after it time the simulator's fast
// paths and the design's ablations.

import (
	"testing"

	"repro"

	"repro/internal/apps/lmbench"
	"repro/internal/apps/postmark"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// BenchmarkExperiments runs every experiment of the vgbench list at
// QuickScale, one sub-benchmark each (`-bench Experiments/t2`), and
// reports its BENCH metrics (virtual-time overheads, bandwidth ratios,
// counts) under their BENCH names via b.ReportMetric. cmd/vgbench
// prints the full tables.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			var res experiments.Result
			for i := 0; i < b.N; i++ {
				res = e.Run(experiments.QuickScale(), 8)
			}
			for name, v := range res.Entry.Metrics {
				b.ReportMetric(v, name)
			}
		})
	}
}

// --- simulator fast-path benches (host time, not virtual time) ---------

// benchFrames is a FrameSource over raw machine memory.
type benchFrames struct{ m *hw.Memory }

func (s benchFrames) GetFrame() (hw.Frame, error) { return s.m.AllocFrame(hw.FrameUserData) }
func (s benchFrames) PutFrame(f hw.Frame)         { _ = s.m.FreeFrame(f) }

// benchHAL boots a native HAL with npages user pages mapped at base.
func benchHAL(b *testing.B, npages int) (*core.NativeHAL, hw.Frame, hw.Virt) {
	b.Helper()
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 2048, DiskBlocks: 64, Seed: 1})
	h, err := core.NewNativeHAL(m)
	if err != nil {
		b.Fatal(err)
	}
	h.RegisterFrameSource(benchFrames{m: m.Mem})
	h.RegisterTrapHandler(func(ic core.IContext, kind hw.TrapKind, info uint64) {})
	root, err := h.NewAddressSpace()
	if err != nil {
		b.Fatal(err)
	}
	base := hw.Virt(0x400000)
	for i := 0; i < npages; i++ {
		f, err := m.Mem.AllocFrame(hw.FrameUserData)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.MapPage(root, base+hw.Virt(i*hw.PageSize), f, hw.PTEUser|hw.PTEWrite); err != nil {
			b.Fatal(err)
		}
	}
	return h, root, base
}

// BenchmarkWalkCache measures the host cost of translated kernel loads
// hitting the walk cache, a direct-mapped array of (root, page) slots
// valid while the page-table generation stands — the hot path under
// every instrumented KLoad/KStore/Copyin in the evaluation harness.
func BenchmarkWalkCache(b *testing.B) {
	h, root, base := benchHAL(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + hw.Virt((i%8)*hw.PageSize) + hw.Virt(i%512*8)
		if _, err := h.KLoad(root, va, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCopyinCopyout measures bulk user<->kernel copies through the
// page-granular fast paths (ReadPhysInto/WritePhys + walk cache, one
// cached walk per page touched).
func BenchmarkCopyinCopyout(b *testing.B) {
	h, root, base := benchHAL(b, 8)
	buf := make([]byte, 4*hw.PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	in := make([]byte, len(buf))
	va := base + 123 // unaligned, so chunks straddle page boundaries
	b.SetBytes(int64(2 * len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Copyout(root, va, buf); err != nil {
			b.Fatal(err)
		}
		if err := h.Copyin(root, va, in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- execution engine benches (host time, not virtual time) ------------

// BenchmarkEngineKChecksum isolates the host cost of IR execution
// itself: the kernel's IR checksum over 4 KiB of kernel scratch, run
// through RunModuleFunc on the pre-linked engine. The comparison with
// the reference interpreter (virref.Interp) lives in internal/vir's
// engine_bench_test.go (BenchmarkEngineCallLoop vs
// BenchmarkInterpCallLoop).
func BenchmarkEngineKChecksum(b *testing.B) {
	sys := repro.MustNewSystem(repro.VirtualGhost)
	k := sys.Kernel
	const buf = 0xffffff8000300000
	if err := k.KMemset(buf, 0x7f, 4096); err != nil {
		b.Fatal(err)
	}
	if _, err := k.KChecksum(buf, 4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.KChecksum(buf, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md design choices) -----------------------

// BenchmarkAblationNullSyscall isolates where the Virtual Ghost null-
// syscall overhead comes from by measuring all three configurations.
func BenchmarkAblationNullSyscall(b *testing.B) {
	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost, repro.Shadow} {
		b.Run(mode.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				sys := repro.MustNewSystem(mode)
				us = lmbench.NullSyscall(sys.Kernel, 200)
			}
			b.ReportMetric(us, "virtual_us/op")
		})
	}
}

// BenchmarkAblationGhostCopy measures the ghosting libc's staging-copy
// discipline: reading file data into ghost memory vs traditional
// memory on a Virtual Ghost kernel (the cost Figure 4 bounds at ~5%).
func BenchmarkAblationGhostCopy(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		sys := repro.MustNewSystem(repro.VirtualGhost)
		us = lmbench.GhostRoundTrip(sys.Kernel, 16*1024, 20)
	}
	b.ReportMetric(us, "virtual_us/op")
}

// BenchmarkAblationPostmarkShadow runs Postmark on the shadowing
// baseline, completing the Table 5 comparison the paper leaves to
// LMBench extrapolation.
func BenchmarkAblationPostmarkShadow(b *testing.B) {
	var secs float64
	for i := 0; i < b.N; i++ {
		sys := repro.MustNewSystem(repro.Shadow)
		secs = postmark.Run(sys.Kernel, postmark.PaperConfig(600)).Seconds
	}
	b.ReportMetric(secs, "virtual_s")
}

// BenchmarkAblationGhostAlloc measures allocgm/freegm throughput — the
// cost of the VM's frame validation, scrubbing, and mapping per ghost
// page (DESIGN.md §5, paper §3.2).
func BenchmarkAblationGhostAlloc(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		sys := repro.MustNewSystem(repro.VirtualGhost)
		k := sys.Kernel
		var cycles uint64
		if _, err := k.Spawn("alloc", func(p *kernel.Proc) {
			start := k.M.Clock.Cycles()
			for j := 0; j < 64; j++ {
				va, err := p.AllocGM(4)
				if err != nil {
					b.Error(err)
					return
				}
				if err := p.FreeGM(va, 4); err != nil {
					b.Error(err)
					return
				}
			}
			cycles = k.M.Clock.Cycles() - start
		}); err != nil {
			b.Fatal(err)
		}
		k.RunUntilIdle()
		us = float64(cycles) / 3.4e9 * 1e6 / 64
	}
	b.ReportMetric(us, "virtual_us/allocgm4")
}
