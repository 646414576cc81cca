package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/hw"
)

// This file exports experiment results as CSV for plotting (the
// figures' data series and the tables' rows).

// WriteCSV writes rows (each a []string) under dir/name.csv.
func WriteCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ","))
	sb.WriteByte('\n')
	for _, r := range rows {
		sb.WriteString(strings.Join(r, ","))
		sb.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(sb.String()), 0o644)
}

// ExportTable2 writes table2.csv.
func ExportTable2(dir string, rows []T2Row) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Test,
			f3(r.Native), f3(r.VG), f3(r.Shadow),
			f3(r.Overhead), f3(r.ShadowX),
			f3(r.Paper.Native), f3(r.Paper.VG), f3(r.Paper.Overhead), f3(r.Paper.InkTag),
		})
	}
	return WriteCSV(dir, "table2",
		[]string{"test", "native_us", "vghost_us", "shadow_us",
			"vg_x", "inktag_x", "paper_native_us", "paper_vg_us", "paper_vg_x", "paper_inktag_x"},
		out)
}

// ExportFileRates writes table3.csv or table4.csv.
func ExportFileRates(dir, name string, rows []FileRateRow) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.SizeBytes),
			f3(r.Native), f3(r.VG), f3(r.Overhead),
			f3(r.PaperNat), f3(r.PaperVG), f3(r.PaperRatio),
		})
	}
	return WriteCSV(dir, name,
		[]string{"size_bytes", "native_per_s", "vghost_per_s", "overhead_x",
			"paper_native", "paper_vghost", "paper_x"},
		out)
}

// ExportSeries writes a figure's bandwidth sweep.
func ExportSeries(dir, name string, pts []BandwidthPoint) error {
	out := make([][]string, 0, len(pts))
	for _, p := range pts {
		out = append(out, []string{
			fmt.Sprint(p.SizeBytes), f3(p.NativeKBs), f3(p.VGKBs), f3(p.Ratio),
		})
	}
	return WriteCSV(dir, name,
		[]string{"size_bytes", "baseline_kbps", "variant_kbps", "ratio"}, out)
}

// ExportTable5 writes table5.csv.
func ExportTable5(dir string, r T5Result, txns int) error {
	return WriteCSV(dir, "table5",
		[]string{"transactions", "native_s", "vghost_s", "overhead_x",
			"paper_native_s", "paper_vghost_s", "paper_x"},
		[][]string{{
			fmt.Sprint(txns), f3(r.NativeSecs), f3(r.VGSecs), f3(r.Overhead),
			f3(r.PaperNative), f3(r.PaperVG), f3(r.PaperOverhead),
		}})
}

// ExportSecurity writes security.csv.
func ExportSecurity(dir string, rows []SecurityRow) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			csvQuote(r.Attack), csvQuote(r.NativeResult), csvQuote(r.VGResult),
			fmt.Sprint(r.Defended),
		})
	}
	return WriteCSV(dir, "security",
		[]string{"attack", "native", "virtualghost", "defended"}, out)
}

// BenchEntry is one experiment's machine-readable result: the virtual
// overhead metrics the paper reports plus the host wall-clock time and
// host allocations the simulator spent producing them. Host costs are
// simulator-efficiency numbers (tracked across PRs); the metrics are
// paper results and must not move.
type BenchEntry struct {
	Name           string             `json:"name"`
	HostNs         int64              `json:"host_ns"`
	HostAllocs     int64              `json:"host_allocs,omitempty"`
	HostAllocBytes int64              `json:"host_alloc_bytes,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
	// Breakdown attributes the measured virtual cycles per configuration
	// (e.g. "null syscall/vghost") to cost tags (tag name -> cycles).
	// Present for experiments that capture ledgers (Table 2/3/4).
	Breakdown map[string]map[string]uint64 `json:"breakdown,omitempty"`
}

// BenchSchemaVersion is the format version stamped into BenchReport as
// schema_version. Bump it on any incompatible change to the report
// shape; the format itself is documented in EXPERIMENTS.md.
//
// v1 (implicit, reports without the field): date/scale/num_cpus/experiments.
// v2: adds schema_version and optional per-entry breakdown maps.
// v3: adds the check_elision entry (removed in v7).
// v4: adds the superinstruction_fusion entry (removed in v7).
// v5: adds snapshot warm start — top-level boot_skipped_sec and
// snapshot_bytes (both removed in v8) — plus the snap entry (per-config
// cold/warm/image cycles and bit-identical flag).
// v6: adds the c10k_eventd entry (event-driven web service under
// concurrent load: per-config peak_conns/requests/rps and
// p50/p95/p99 virtual latency µs, adversary outcomes, and server-side
// syn_drops/timeout_kills counters).
// v7: drops the check_elision and superinstruction_fusion entries and
// the per-entry host_parallel field (the engine knobs they reported are
// gone: the linked engine always fuses and never elides).
// v8: drops boot_skipped_sec and snapshot_bytes (snapshot warm start is
// gone: a fork from an image cost as much host time as a cold boot).
const BenchSchemaVersion = 8

// BenchReport is the cross-PR perf trajectory record written by
// `vgbench -json` as BENCH_<date>.json.
type BenchReport struct {
	SchemaVersion int    `json:"schema_version"`
	Date          string `json:"date"`
	Scale         string `json:"scale"`
	// NumCPUs is the top of the SMP sweep (-cpus); 1 = single-CPU run.
	NumCPUs int `json:"num_cpus"`
	// HostCPUs is runtime.NumCPU() on the measuring machine — the hard
	// ceiling on any host_speedup_* metric (one host core caps every
	// host speedup at ~1x regardless of virtual CPU count).
	HostCPUs int          `json:"host_cpus,omitempty"`
	Entries  []BenchEntry `json:"experiments"`
}

// BreakdownMap converts a measurement ledger to the JSON breakdown
// shape: tag name -> cycles, zero tags omitted.
func BreakdownMap(l hw.Ledger) map[string]uint64 {
	out := make(map[string]uint64)
	for t := hw.Tag(0); t < hw.NumTags; t++ {
		if l[t] > 0 {
			out[t.String()] = l[t]
		}
	}
	return out
}

// WriteBenchJSON writes the report to path.
func WriteBenchJSON(path string, r BenchReport) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func f3(v float64) string { return fmt.Sprintf("%.6g", v) }

func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
