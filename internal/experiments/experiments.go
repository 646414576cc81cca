// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) and the security results (§7). Each experiment boots
// fresh systems for the configurations it compares and returns
// structured results plus formatted tables. The Experiments list
// (bench.go) runs them for cmd/vgbench, the bench golden, the
// EXPERIMENTS.md check and bench_test.go's BenchmarkExperiments.
package experiments

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/apps/lmbench"
	"repro/internal/apps/postmark"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// Scale shrinks iteration counts uniformly (1.0 = paper scale where
// feasible). Tests use small scales; cmd/vgbench defaults larger.
type Scale struct {
	LMBenchIters int // paper: 1000
	FileCount    int // files per create/delete measurement
	HTTPRequests int // paper: 10000 per size
	SSHRuns      int // paper: 20 per size
	PostmarkTxns int // paper: 500000
	// C10KConns is the concurrent-connection target of the C10K
	// experiment; C10KRequests is the per-connection request count.
	C10KConns    int
	C10KRequests int
}

// QuickScale is small enough for unit tests.
func QuickScale() Scale {
	return Scale{LMBenchIters: 40, FileCount: 60, HTTPRequests: 6, SSHRuns: 2, PostmarkTxns: 400,
		C10KConns: 300, C10KRequests: 2}
}

// FullScale is the cmd/vgbench default (minutes of host time).
func FullScale() Scale {
	return Scale{LMBenchIters: 300, FileCount: 300, HTTPRequests: 40, SSHRuns: 5, PostmarkTxns: 20000,
		C10KConns: 10000, C10KRequests: 2}
}

// newSystem boots a ready-to-measure default-configuration system.
func newSystem(mode repro.Mode) *repro.System {
	s, err := repro.NewSystem(mode)
	if err != nil {
		panic(fmt.Sprintf("experiments: boot %v: %v", mode, err))
	}
	return s
}

// --- Table 2: LMBench latencies ---------------------------------------------

// PaperT2 holds the paper's Table 2 reference numbers for one row.
type PaperT2 struct {
	Native, VG float64 // µs
	Overhead   float64 // x
	InkTag     float64 // x (0 = not reported)
}

// T2Row is one measured Table 2 row.
type T2Row struct {
	Test     string
	Native   float64 // µs
	VG       float64 // µs
	Shadow   float64 // µs
	Overhead float64 // VG/native
	ShadowX  float64 // shadow/native
	Paper    PaperT2
	// Per-configuration cycle ledgers for the measurement itself (boot
	// excluded): where the cycles of each column went, by cost tag. The
	// ledger total for a config always equals its measured cycles — the
	// tagged accounting partitions the same bit-identical totals.
	NativeLedger hw.Ledger
	VGLedger     hw.Ledger
	ShadowLedger hw.Ledger
}

// paperTable2 is Table 2 of the paper.
var paperTable2 = map[string]PaperT2{
	"null syscall":            {0.091, 0.355, 3.90, 55.8},
	"open/close":              {2.01, 9.70, 4.83, 7.95},
	"mmap":                    {7.06, 33.2, 4.70, 9.94},
	"page fault":              {31.8, 36.7, 1.15, 7.50},
	"signal handler install":  {0.168, 0.545, 3.24, 0},
	"signal handler delivery": {1.27, 2.05, 1.61, 0},
	"fork + exit":             {63.7, 283, 4.40, 5.74},
	"fork + exec":             {101, 422, 4.20, 3.04},
	"select":                  {3.05, 10.3, 3.40, 0},
}

// Table2 runs the LMBench microbenchmarks on all three configurations.
func Table2(sc Scale) []T2Row {
	type bench struct {
		name string
		run  func(k *kernel.Kernel) float64
	}
	iters := sc.LMBenchIters
	benches := []bench{
		{"null syscall", func(k *kernel.Kernel) float64 { return lmbench.NullSyscall(k, iters*4) }},
		{"open/close", func(k *kernel.Kernel) float64 { return lmbench.OpenClose(k, iters) }},
		{"mmap", func(k *kernel.Kernel) float64 { return lmbench.Mmap(k, iters) }},
		{"page fault", func(k *kernel.Kernel) float64 { return lmbench.PageFault(k, min(iters, 200)) }},
		{"signal handler install", func(k *kernel.Kernel) float64 { return lmbench.SigInstall(k, iters*2) }},
		{"signal handler delivery", func(k *kernel.Kernel) float64 { return lmbench.SigDeliver(k, iters) }},
		{"fork + exit", func(k *kernel.Kernel) float64 { return lmbench.ForkExit(k, max(iters/10, 4)) }},
		{"fork + exec", func(k *kernel.Kernel) float64 { return lmbench.ForkExec(k, max(iters/10, 4)) }},
		{"select", func(k *kernel.Kernel) float64 { return lmbench.Select(k, 64, iters) }},
	}
	rows := make([]T2Row, len(benches))
	for i, b := range benches {
		row := T2Row{Test: b.name, Paper: paperTable2[b.name]}
		row.Native, row.NativeLedger = runLedgered(repro.Native, b.run)
		row.VG, row.VGLedger = runLedgered(repro.VirtualGhost, b.run)
		row.Shadow, row.ShadowLedger = runLedgered(repro.Shadow, b.run)
		if row.Native > 0 {
			row.Overhead = row.VG / row.Native
			row.ShadowX = row.Shadow / row.Native
		}
		rows[i] = row
	}
	return rows
}

// runLedgered boots a fresh system, runs the measurement, and returns
// its result together with the per-tag cycle delta of the measurement
// (snapshotting the ledger around the run excludes boot costs).
func runLedgered(mode repro.Mode, run func(k *kernel.Kernel) float64) (float64, hw.Ledger) {
	sys := newSystem(mode)
	pre := sys.Kernel.M.Clock.Ledger()
	v := run(sys.Kernel)
	return v, sys.Kernel.M.Clock.Ledger().Sub(pre)
}

// FormatTable2 renders the Table 2 comparison as a Markdown table, each
// cell measured / paper.
func FormatTable2(rows []T2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2. LMBench latencies (microseconds of virtual time), measured / paper\n\n")
	sb.WriteString("| Test | Native | VGhost | VG x | InkTag x |\n|---|---:|---:|---:|---:|\n")
	for _, r := range rows {
		ink := "-"
		if r.Paper.InkTag > 0 {
			ink = fmt.Sprintf("%.2fx", r.Paper.InkTag)
		}
		fmt.Fprintf(&sb, "| %s | %.3g / %.3g | %.3g / %.3g | %.2fx / %.2fx | %.2fx / %s |\n",
			r.Test, r.Native, r.Paper.Native, r.VG, r.Paper.VG,
			r.Overhead, r.Paper.Overhead, r.ShadowX, ink)
	}
	return sb.String()
}

// FormatT2Breakdown renders the per-tag cycle attribution of each
// Table 2 measurement: where each configuration's cycles went, by cost
// tag, so the VG-over-native overhead can be read off mechanism by
// mechanism (ic-save vs. sandbox vs. mmu-check ...).
func FormatT2Breakdown(rows []T2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2 breakdown. Share of measured cycles by cost tag\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s:\n", r.Test)
		fmt.Fprintf(&sb, "  %-7s %s\n", "native", ledgerLine(r.NativeLedger))
		fmt.Fprintf(&sb, "  %-7s %s\n", "vghost", ledgerLine(r.VGLedger))
		fmt.Fprintf(&sb, "  %-7s %s\n", "shadow", ledgerLine(r.ShadowLedger))
	}
	return sb.String()
}

// FormatFileRateBreakdown is FormatT2Breakdown for Table 3/4 rows.
func FormatFileRateBreakdown(title string, rows []FileRateRow) string {
	var sb strings.Builder
	sb.WriteString(title + " breakdown. Share of measured cycles by cost tag\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s files:\n", sizeLabel(r.SizeBytes))
		fmt.Fprintf(&sb, "  %-7s %s\n", "native", ledgerLine(r.NativeLedger))
		fmt.Fprintf(&sb, "  %-7s %s\n", "vghost", ledgerLine(r.VGLedger))
	}
	return sb.String()
}

// breakdownTopN bounds how many tags a breakdown line spells out; the
// rest are folded into a residual so lines stay one-line readable.
const breakdownTopN = 6

// ledgerLine renders a ledger as its top tag shares, e.g.
// "ic-save 34.2%, sandbox 21.7%, trap 12.0%, +3 more (1234567 cycles)".
func ledgerLine(l hw.Ledger) string {
	total := l.Total()
	if total == 0 {
		return "(no cycles)"
	}
	shares := l.TopShares()
	rest := 0
	if len(shares) > breakdownTopN {
		rest = len(shares) - breakdownTopN
		shares = shares[:breakdownTopN]
	}
	parts := make([]string, 0, len(shares)+1)
	for _, s := range shares {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s.Tag, s.Share*100))
	}
	if rest > 0 {
		parts = append(parts, fmt.Sprintf("+%d more", rest))
	}
	return strings.Join(parts, ", ") + fmt.Sprintf(" (%d cycles)", total)
}

// --- Tables 3 & 4: file delete / create rates --------------------------------

// FileRateRow is one size row of Tables 3/4.
type FileRateRow struct {
	SizeBytes  int
	Native     float64 // files/sec
	VG         float64
	Overhead   float64
	PaperNat   float64
	PaperVG    float64
	PaperRatio float64
	// Per-configuration cycle ledgers of the measurement (see T2Row).
	NativeLedger hw.Ledger
	VGLedger     hw.Ledger
}

var paperTable3 = map[int][3]float64{ // delete: size -> {native, vg, x}
	0:     {166846, 36164, 4.61},
	1024:  {116668, 25817, 4.52},
	4096:  {116657, 25806, 4.52},
	10240: {110842, 25042, 4.43},
}

var paperTable4 = map[int][3]float64{ // create
	0:     {156276, 33777, 4.63},
	1024:  {97839, 18796, 5.21},
	4096:  {97102, 18725, 5.19},
	10240: {85319, 18095, 4.71},
}

// FileSizes are the Table 3/4 file sizes.
var FileSizes = []int{0, 1024, 4096, 10240}

// Table3 measures files deleted per second.
func Table3(sc Scale) []FileRateRow {
	return fileRates(sc, lmbench.FileDelete, paperTable3)
}

// Table4 measures files created per second.
func Table4(sc Scale) []FileRateRow {
	return fileRates(sc, lmbench.FileCreate, paperTable4)
}

func fileRates(sc Scale, f func(*kernel.Kernel, int, int) float64, paper map[int][3]float64) []FileRateRow {
	rows := make([]FileRateRow, len(FileSizes))
	for i, size := range FileSizes {
		r := FileRateRow{SizeBytes: size}
		r.Native, r.NativeLedger = runLedgered(repro.Native, func(k *kernel.Kernel) float64 {
			return f(k, size, sc.FileCount)
		})
		r.VG, r.VGLedger = runLedgered(repro.VirtualGhost, func(k *kernel.Kernel) float64 {
			return f(k, size, sc.FileCount)
		})
		if r.VG > 0 {
			r.Overhead = r.Native / r.VG
		}
		p := paper[size]
		r.PaperNat, r.PaperVG, r.PaperRatio = p[0], p[1], p[2]
		rows[i] = r
	}
	return rows
}

// FormatFileRates renders Table 3 or 4 as a Markdown table, each cell
// measured / paper.
func FormatFileRates(title string, rows []FileRateRow) string {
	var sb strings.Builder
	sb.WriteString(title + ", measured / paper\n\n")
	sb.WriteString("| Size | Native/s | VGhost/s | Overhead |\n|---|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %s | %.0f / %.0f | %.0f / %.0f | %.2fx / %.2fx |\n",
			sizeLabel(r.SizeBytes), r.Native, r.PaperNat, r.VG, r.PaperVG,
			r.Overhead, r.PaperRatio)
	}
	return sb.String()
}

func sizeLabel(n int) string {
	switch {
	case n == 0:
		return "0 KB"
	case n%1024 == 0:
		return fmt.Sprintf("%d KB", n/1024)
	default:
		return fmt.Sprintf("%.1f KB", float64(n)/1024)
	}
}

// --- Table 5: Postmark --------------------------------------------------------

// T5Result compares Postmark across configurations.
type T5Result struct {
	NativeSecs float64
	VGSecs     float64
	Overhead   float64
	// Paper: 14.30 s native, 67.50 s VG, 4.72x.
	PaperNative, PaperVG, PaperOverhead float64
}

// Table5 runs Postmark on both configurations.
func Table5(sc Scale) T5Result {
	cfg := postmark.PaperConfig(sc.PostmarkTxns)
	nat := postmark.Run(newSystem(repro.Native).Kernel, cfg)
	vg := postmark.Run(newSystem(repro.VirtualGhost).Kernel, cfg)
	res := T5Result{
		NativeSecs: nat.Seconds, VGSecs: vg.Seconds,
		PaperNative: 14.30, PaperVG: 67.50, PaperOverhead: 4.72,
	}
	if nat.Seconds > 0 {
		res.Overhead = vg.Seconds / nat.Seconds
	}
	return res
}

// FormatTable5 renders Table 5 as a Markdown table.
func FormatTable5(r T5Result, txns int) string {
	return fmt.Sprintf("Table 5. Postmark\n\n"+
		"| | Native | Virtual Ghost | Overhead |\n|---|---:|---:|---:|\n"+
		"| measured (%d txns) | %.3f s | %.3f s | %.2fx |\n"+
		"| paper (500k txns) | %.2f s | %.2f s | %.2fx |\n",
		txns, r.NativeSecs, r.VGSecs, r.Overhead,
		r.PaperNative, r.PaperVG, r.PaperOverhead)
}

// --- Security matrix (§7) -------------------------------------------------------

// SecurityRow is one attack-vs-configuration outcome.
type SecurityRow struct {
	Attack       string
	NativeResult string // e.g. "secret stolen"
	VGResult     string
	// Defended is true when the attack succeeded natively and failed
	// under Virtual Ghost — the paper's expected outcome.
	Defended bool
}

// FormatSecurity renders the matrix as a Markdown table, then the
// tally of attacks Virtual Ghost defeated.
func FormatSecurity(rows []SecurityRow) string {
	var sb strings.Builder
	sb.WriteString("Security results (paper section 7)\n\n")
	sb.WriteString("| Attack | Native | Virtual Ghost | Defended |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %s | %s | %s | %v |\n", r.Attack, r.NativeResult, r.VGResult, r.Defended)
	}
	fmt.Fprintf(&sb, "\n%d/%d attacks succeed natively and are defeated by Virtual Ghost\n",
		defended(rows), len(rows))
	return sb.String()
}

// defended counts the attacks Virtual Ghost defeated.
func defended(rows []SecurityRow) int {
	n := 0
	for _, r := range rows {
		if r.Defended {
			n++
		}
	}
	return n
}
