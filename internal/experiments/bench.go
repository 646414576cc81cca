package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/hw"
)

// This file is the experiment list and the BENCH record it fills. Each
// entry runs one experiment and turns its result into the three things
// a reader sees: the Markdown table `vgbench` prints and EXPERIMENTS.md
// publishes, the `-breakdown` text, and the BENCH entry `vgbench -json`
// writes and TestGoldenBench pins. The entries carry no host fields;
// the caller times the run and fills those in.

// Experiment is one experiment of the list: its `vgbench -only` name
// and its run.
type Experiment struct {
	Name string
	// Run measures at sc; cpus is the top of the CPU-scaling sweep,
	// which only "cpu" reads.
	Run func(sc Scale, cpus int) Result
}

// Result is one experiment run's output.
type Result struct {
	Table     string     // GitHub Markdown, as EXPERIMENTS.md publishes it
	Breakdown string     // per-tag cycle attribution (Tables 2–4; else empty)
	Entry     BenchEntry // virtual metrics and breakdowns, host fields unset
}

// Experiments is every experiment, in run order. cmd/vgbench, the bench
// golden, the EXPERIMENTS.md check and BenchmarkExperiments all iterate
// it; nothing else names an experiment.
var Experiments = []Experiment{
	{"t2", func(sc Scale, _ int) Result {
		rows := Table2(sc)
		return Result{FormatTable2(rows), FormatT2Breakdown(rows), table2Entry(rows)}
	}},
	{"t3", func(sc Scale, _ int) Result {
		rows := Table3(sc)
		return Result{FormatFileRates("Table 3. Files deleted per second", rows),
			FormatFileRateBreakdown("Table 3", rows), fileRateEntry("table3_file_delete", "delete", rows)}
	}},
	{"t4", func(sc Scale, _ int) Result {
		rows := Table4(sc)
		return Result{FormatFileRates("Table 4. Files created per second", rows),
			FormatFileRateBreakdown("Table 4", rows), fileRateEntry("table4_file_create", "create", rows)}
	}},
	{"f2", func(sc Scale, _ int) Result {
		pts := Figure2(sc)
		return Result{Table: FormatSeries("Figure 2. thttpd bandwidth (native vs Virtual Ghost kernel)",
			pts, "native", "vghost"), Entry: seriesEntry("figure2_thttpd", pts)}
	}},
	{"f3", func(sc Scale, _ int) Result {
		pts := Figure3(sc)
		return Result{Table: FormatSeries("Figure 3. sshd transfer rate (native vs Virtual Ghost kernel)",
			pts, "native", "vghost"), Entry: seriesEntry("figure3_sshd", pts)}
	}},
	{"f4", func(sc Scale, _ int) Result {
		pts := Figure4(sc)
		return Result{Table: FormatSeries("Figure 4. ssh client transfer rate on Virtual Ghost (original vs ghosting)",
			pts, "original", "ghosting"), Entry: seriesEntry("figure4_ghosting_ssh", pts)}
	}},
	{"t5", func(sc Scale, _ int) Result {
		res := Table5(sc)
		return Result{Table: FormatTable5(res, sc.PostmarkTxns), Entry: BenchEntry{
			Name: "table5_postmark", Metrics: map[string]float64{"postmark_x": res.Overhead}}}
	}},
	{"sec", func(Scale, int) Result {
		rows := SecurityMatrix()
		return Result{Table: FormatSecurity(rows), Entry: BenchEntry{Name: "security_matrix",
			Metrics: map[string]float64{"attacks": float64(len(rows)), "defended": float64(defended(rows))}}}
	}},
	{"cpu", func(sc Scale, cpus int) Result {
		pts := CPUScaling(sc, CPUCountsUpTo(cpus))
		return Result{Table: FormatCPUScaling(pts), Entry: cpuScalingEntry(pts)}
	}},
	{"c10k", func(sc Scale, _ int) Result {
		cmp := C10K(sc)
		return Result{Table: FormatC10K(cmp), Entry: c10kEntry(cmp)}
	}},
	{"snap", func(Scale, int) Result {
		rows := SnapDifferential()
		return Result{Table: FormatSnap(rows), Entry: snapEntry(rows)}
	}},
}

// table2Entry is Table 2's entry: each row's VG overhead, and each
// row's ledger per configuration.
func table2Entry(rows []T2Row) BenchEntry {
	e := BenchEntry{
		Name:      "table2_lmbench",
		Metrics:   make(map[string]float64, len(rows)),
		Breakdown: make(map[string]map[string]uint64, 3*len(rows)),
	}
	for _, r := range rows {
		key := metricKey(r.Test)
		e.Metrics[key+"_x"] = r.Overhead
		e.Breakdown[key+"/native"] = BreakdownMap(r.NativeLedger)
		e.Breakdown[key+"/vghost"] = BreakdownMap(r.VGLedger)
		e.Breakdown[key+"/shadow"] = BreakdownMap(r.ShadowLedger)
	}
	return e
}

// fileRateEntry records each size's overhead and ledgers under op.
func fileRateEntry(name, op string, rows []FileRateRow) BenchEntry {
	e := BenchEntry{
		Name:      name,
		Metrics:   make(map[string]float64, len(rows)),
		Breakdown: make(map[string]map[string]uint64, 2*len(rows)),
	}
	for _, r := range rows {
		key := fmt.Sprintf("%s_%db", op, r.SizeBytes)
		e.Metrics[key+"_x"] = r.Overhead
		e.Breakdown[key+"/native"] = BreakdownMap(r.NativeLedger)
		e.Breakdown[key+"/vghost"] = BreakdownMap(r.VGLedger)
	}
	return e
}

// seriesEntry summarizes a bandwidth sweep by its end points.
func seriesEntry(name string, pts []BandwidthPoint) BenchEntry {
	m := make(map[string]float64, 2)
	if len(pts) > 0 {
		m[fmt.Sprintf("ratio_%db", pts[0].SizeBytes)] = pts[0].Ratio
		m[fmt.Sprintf("ratio_%db", pts[len(pts)-1].SizeBytes)] = pts[len(pts)-1].Ratio
	}
	return BenchEntry{Name: name, Metrics: m}
}

// CPUCountsUpTo is the part of the CPUCounts sweep at most n CPUs wide.
func CPUCountsUpTo(n int) []int {
	counts := make([]int, 0, len(CPUCounts))
	for _, c := range CPUCounts {
		if c <= n {
			counts = append(counts, c)
		}
	}
	return counts
}

// cpuScalingEntry records each machine size's speedup and per-CPU
// utilization.
func cpuScalingEntry(pts []CPUPoint) BenchEntry {
	metrics := make(map[string]float64)
	for _, p := range pts {
		metrics[fmt.Sprintf("speedup_%dcpu", p.NumCPUs)] = p.Speedup
		for c, u := range p.Utilization {
			metrics[fmt.Sprintf("util_%dcpu_cpu%d", p.NumCPUs, c)] = u
		}
	}
	return BenchEntry{Name: "cpu_scaling_ghost_httpd", Metrics: metrics}
}

// c10kEntry records both servers' load, latency and adversary outcomes,
// and each server's ledger.
func c10kEntry(cmp C10KCompare) BenchEntry {
	metrics := map[string]float64{"conns": float64(cmp.Conns)}
	for _, s := range []struct {
		name string
		r    C10KResult
	}{{"native", cmp.Native}, {"vghost", cmp.VG}} {
		metrics[s.name+"/peak_conns"] = float64(s.r.PeakConns)
		metrics[s.name+"/requests"] = float64(s.r.Requests)
		metrics[s.name+"/failures"] = float64(s.r.Failures)
		metrics[s.name+"/rps"] = s.r.RPS
		metrics[s.name+"/p50_us"] = s.r.P50us
		metrics[s.name+"/p95_us"] = s.r.P95us
		metrics[s.name+"/p99_us"] = s.r.P99us
		metrics[s.name+"/idle_killed"] = float64(s.r.IdleKilled)
		metrics[s.name+"/rejected_400"] = float64(s.r.Rejected400)
		metrics[s.name+"/timeout_kills"] = float64(s.r.NetStats.TimeoutKills)
	}
	if cmp.Native.RPS > 0 {
		metrics["rps_ratio"] = cmp.VG.RPS / cmp.Native.RPS
	}
	return BenchEntry{
		Name:    "c10k_eventd",
		Metrics: metrics,
		Breakdown: map[string]map[string]uint64{
			"c10k/native": BreakdownMap(cmp.Native.Ledger),
			"c10k/vghost": BreakdownMap(cmp.VG.Ledger),
		},
	}
}

// snapEntry records each configuration's image size, frozen cycles
// and sealed pages. The differential is a hard determinism contract,
// not a statistic: any cold-vs-warm difference is a bug, and it panics
// rather than report numbers on top of one.
func snapEntry(rows []SnapRow) BenchEntry {
	metrics := make(map[string]float64, 3*len(rows))
	for _, r := range rows {
		if !r.Identical || r.ColdCycles != r.WarmCycles {
			panic(fmt.Sprintf("snapshot determinism violated: %s cold=%d warm=%d bit-identical=%v",
				r.Config, r.ColdCycles, r.WarmCycles, r.Identical))
		}
		metrics[r.Config+"_image_bytes"] = float64(r.ImageBytes)
		metrics[r.Config+"_image_cycles"] = float64(r.ImageCycles)
		metrics[r.Config+"_sealed_pages"] = float64(r.SealedPages)
	}
	return BenchEntry{Name: "snapshot_differential", Metrics: metrics}
}

// metricKey turns a human-readable test name into a snake_case metric
// key ("fork + exec" -> "fork_exec").
func metricKey(name string) string {
	var b []byte
	lastUnderscore := true
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b = append(b, byte(c))
			lastUnderscore = false
		case c >= 'A' && c <= 'Z':
			b = append(b, byte(c-'A'+'a'))
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b = append(b, '_')
				lastUnderscore = true
			}
		}
	}
	for len(b) > 0 && b[len(b)-1] == '_' {
		b = b[:len(b)-1]
	}
	return string(b)
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
	// Present for experiments that capture ledgers (Tables 2–4, C10K).
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
// v9: drops the host_speedup_{1,2,4,8}cpu metrics of cpu_scaling_ghost_httpd
// (host-parallel user phases are gone), so every metrics value is virtual.
const BenchSchemaVersion = 9

// BenchReport is the cross-PR perf trajectory record written by
// `vgbench -json` as BENCH_<date>.json.
type BenchReport struct {
	SchemaVersion int    `json:"schema_version"`
	Date          string `json:"date"`
	Scale         string `json:"scale"`
	// NumCPUs is the top of the SMP sweep (-cpus); 1 = single-CPU run.
	NumCPUs int `json:"num_cpus"`
	// HostCPUs is runtime.NumCPU() on the measuring machine; host costs
	// of reports with different host_cpus do not compare.
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
