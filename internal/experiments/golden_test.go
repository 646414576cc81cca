package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro"
	"repro/internal/apps/lmbench"
	"repro/internal/kernel"
)

// TestGoldenCycles pins the virtual-clock behaviour of the Table 2
// microbenchmarks (and of direct module execution) to checked-in
// values, making "experiment metrics bit-identical across commits" an
// executable assertion instead of a manual diff. Any change that moves
// the virtual clock — a new cost, a reordered charge, an execution-
// engine bug — fails this test with the exact rows that moved.
//
// After an *intentional* cost-model change, regenerate with:
//
//	go test ./internal/experiments -run TestGoldenCycles -update
//
// and justify the new numbers in the commit message.

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata (golden_cycles.json, golden_smp.json, golden_bench.json, golden_trace.json) and the generated blocks of EXPERIMENTS.md")

// goldenEntry is one pinned measurement: the benchmark's reported
// value (virtual µs) and the machine's cumulative cycle counter after
// boot + run, which pins every charge on the path, not just the
// benchmark window.
type goldenEntry struct {
	Value  float64 `json:"value"`
	Cycles uint64  `json:"cycles"`
}

const goldenPath = "testdata/golden_cycles.json"

// goldenScale is deliberately fixed and small: the point is exact
// cycle equality, not statistical quality.
func goldenScale() Scale {
	return Scale{LMBenchIters: 20, FileCount: 20, HTTPRequests: 2, SSHRuns: 1, PostmarkTxns: 100}
}

// collectGolden runs the pinned measurements, each on a fresh system
// from boot.
func collectGolden(boot func(repro.Mode) *repro.System) map[string]goldenEntry {
	sc := goldenScale()
	iters := sc.LMBenchIters
	benches := []struct {
		name string
		run  func(k *kernel.Kernel) float64
	}{
		{"null syscall", func(k *kernel.Kernel) float64 { return lmbench.NullSyscall(k, iters*4) }},
		{"open/close", func(k *kernel.Kernel) float64 { return lmbench.OpenClose(k, iters) }},
		{"mmap", func(k *kernel.Kernel) float64 { return lmbench.Mmap(k, iters) }},
		{"page fault", func(k *kernel.Kernel) float64 { return lmbench.PageFault(k, iters) }},
		{"signal handler install", func(k *kernel.Kernel) float64 { return lmbench.SigInstall(k, iters*2) }},
		{"signal handler delivery", func(k *kernel.Kernel) float64 { return lmbench.SigDeliver(k, iters) }},
		{"fork + exit", func(k *kernel.Kernel) float64 { return lmbench.ForkExit(k, 4) }},
		{"fork + exec", func(k *kernel.Kernel) float64 { return lmbench.ForkExec(k, 4) }},
		{"select", func(k *kernel.Kernel) float64 { return lmbench.Select(k, 64, iters) }},
	}
	modes := []struct {
		name string
		mode repro.Mode
	}{
		{"native", repro.Native},
		{"vghost", repro.VirtualGhost},
		{"shadow", repro.Shadow},
	}
	got := make(map[string]goldenEntry)
	for _, m := range modes {
		for _, b := range benches {
			s := boot(m.mode)
			v := b.run(s.Kernel)
			got[fmt.Sprintf("t2/%s/%s", m.name, b.name)] = goldenEntry{
				Value:  v,
				Cycles: s.Machine.Clock.Cycles(),
			}
		}
	}
	// Direct module execution rows: these run entirely inside the IR
	// execution engine, so they pin the engine's cost accounting with
	// no syscall machinery around it.
	for _, m := range modes[:2] {
		s := boot(m.mode)
		k := s.Kernel
		const buf = 0xffffff8000200000
		c0 := s.Machine.Clock.Cycles()
		if err := k.KMemset(buf, 0x5a, 256); err != nil {
			panic(err)
		}
		got[fmt.Sprintf("mod/%s/kmemset256", m.name)] = goldenEntry{
			Cycles: s.Machine.Clock.Cycles() - c0,
		}
		c0 = s.Machine.Clock.Cycles()
		sum, err := k.KChecksum(buf, 256)
		if err != nil {
			panic(err)
		}
		got[fmt.Sprintf("mod/%s/kchecksum256", m.name)] = goldenEntry{
			Value:  float64(sum),
			Cycles: s.Machine.Clock.Cycles() - c0,
		}
	}
	return got
}

func TestGoldenCycles(t *testing.T) {
	got := collectGolden(newSystem)
	if *updateGolden {
		writeGolden(t, goldenPath, got)
		return
	}
	compareGolden(t, got)
}

// compareGolden requires got to hold exactly golden_cycles.json's
// entries, each with the pinned value and cumulative cycle count.
func compareGolden(t *testing.T, got map[string]goldenEntry) {
	t.Helper()
	compareGoldenFile(t, goldenPath, got, nil, func(e goldenEntry) string {
		return fmt.Sprintf("value=%v cycles=%d", e.Value, e.Cycles)
	})
}

// writeGolden rewrites the golden file at path with got (-update).
func writeGolden(t *testing.T, path string, got any) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", path)
}

// compareGoldenFile requires got to hold exactly the entries of the
// golden file at path that own selects (nil selects all; a file shared
// by two tests gives each its own entries). show renders an entry; two
// entries are equal when they render equal, and a moved entry is
// reported in both renderings.
func compareGoldenFile[T any](t *testing.T, path string, got map[string]T, own func(name string) bool, show func(T) string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}
	names := make([]string, 0, len(want))
	for n := range want {
		if own == nil || own(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			t.Errorf("%s: missing from current run", n)
			continue
		}
		if w, c := show(want[n]), show(g); w != c {
			t.Errorf("%s: virtual result moved:\n  golden:  %s\n  current: %s", n, w, c)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: not in golden file (run with -update after review)", n)
		}
	}
}
