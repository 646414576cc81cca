// Command vgbench regenerates every table and figure of the paper's
// evaluation (§8) plus the §7 security matrix, printing measured values
// beside the paper's. Run with -quick for a fast pass. -json records
// the run as BENCH_<date>.json (virtual overheads + host ns and host
// allocations per experiment) so the perf trajectory is
// machine-readable across PRs. -cpuprofile/-memprofile capture pprof
// data for simulator-efficiency work.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use small iteration counts")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(experimentNames, "|"))
	cpus := flag.Int("cpus", 8, "top of the SMP sweep for the cpu-scaling experiment (1/2/4/8 up to this)")
	parallel := flag.Bool("parallel", false, "fan independent measurements out over host goroutines (identical results, less wall-clock)")
	csvDir := flag.String("csv", "", "also write machine-readable results to this directory")
	jsonOut := flag.Bool("json", false, "also write BENCH_<date>.json with overheads, host ns, and host allocs per experiment")
	breakdown := flag.Bool("breakdown", false, "print per-tag cycle attribution under Table 2/3/4")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *only != "" && !slices.Contains(experimentNames, *only) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s)\n",
			*only, strings.Join(experimentNames, ", "))
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	sc := experiments.FullScale()
	scaleName := "full"
	if *quick {
		sc = experiments.QuickScale()
		scaleName = "quick"
	}
	sc.Parallel = *parallel

	run := func(name string) bool { return *only == "" || *only == name }

	export := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
			os.Exit(1)
		}
	}

	report := experiments.BenchReport{
		SchemaVersion: experiments.BenchSchemaVersion,
		Date:          time.Now().Format("2006-01-02"),
		Scale:         scaleName,
		NumCPUs:       *cpus,
		HostCPUs:      runtime.NumCPU(),
	}

	// timed runs one experiment and captures its host cost: wall clock
	// plus allocation count/bytes (MemStats deltas, so they include
	// everything the simulator allocated while producing the result).
	timed := func(fn func()) (ns, allocs, allocBytes int64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		fn()
		ns = time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&m1)
		return ns, int64(m1.Mallocs - m0.Mallocs), int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	record := func(name string, ns, allocs, allocBytes int64, metrics map[string]float64) *experiments.BenchEntry {
		report.Entries = append(report.Entries, experiments.BenchEntry{
			Name: name, HostNs: ns,
			HostAllocs: allocs, HostAllocBytes: allocBytes,
			Metrics: metrics,
		})
		return &report.Entries[len(report.Entries)-1]
	}

	if run("t2") {
		var rows []experiments.T2Row
		ns, allocs, ab := timed(func() { rows = experiments.Table2(sc) })
		fmt.Println(experiments.FormatTable2(rows))
		if *breakdown {
			fmt.Println(experiments.FormatT2Breakdown(rows))
		}
		if *csvDir != "" {
			export(experiments.ExportTable2(*csvDir, rows))
		}
		metrics := make(map[string]float64, len(rows))
		for _, r := range rows {
			metrics[metricKey(r.Test)+"_x"] = r.Overhead
		}
		e := record("table2_lmbench", ns, allocs, ab, metrics)
		e.Breakdown = make(map[string]map[string]uint64, 3*len(rows))
		for _, r := range rows {
			key := metricKey(r.Test)
			e.Breakdown[key+"/native"] = experiments.BreakdownMap(r.NativeLedger)
			e.Breakdown[key+"/vghost"] = experiments.BreakdownMap(r.VGLedger)
			e.Breakdown[key+"/shadow"] = experiments.BreakdownMap(r.ShadowLedger)
		}
	}
	if run("t3") {
		var rows []experiments.FileRateRow
		ns, allocs, ab := timed(func() { rows = experiments.Table3(sc) })
		fmt.Println(experiments.FormatFileRates("Table 3. Files deleted per second", rows))
		if *breakdown {
			fmt.Println(experiments.FormatFileRateBreakdown("Table 3", rows))
		}
		if *csvDir != "" {
			export(experiments.ExportFileRates(*csvDir, "table3", rows))
		}
		metrics := make(map[string]float64, len(rows))
		for _, r := range rows {
			metrics[fmt.Sprintf("delete_%db_x", r.SizeBytes)] = r.Overhead
		}
		e := record("table3_file_delete", ns, allocs, ab, metrics)
		e.Breakdown = fileRateBreakdowns("delete", rows)
	}
	if run("t4") {
		var rows []experiments.FileRateRow
		ns, allocs, ab := timed(func() { rows = experiments.Table4(sc) })
		fmt.Println(experiments.FormatFileRates("Table 4. Files created per second", rows))
		if *breakdown {
			fmt.Println(experiments.FormatFileRateBreakdown("Table 4", rows))
		}
		if *csvDir != "" {
			export(experiments.ExportFileRates(*csvDir, "table4", rows))
		}
		metrics := make(map[string]float64, len(rows))
		for _, r := range rows {
			metrics[fmt.Sprintf("create_%db_x", r.SizeBytes)] = r.Overhead
		}
		e := record("table4_file_create", ns, allocs, ab, metrics)
		e.Breakdown = fileRateBreakdowns("create", rows)
	}
	if run("f2") {
		var pts []experiments.BandwidthPoint
		ns, allocs, ab := timed(func() { pts = experiments.Figure2(sc) })
		fmt.Println(experiments.FormatSeries("Figure 2. thttpd bandwidth (native vs Virtual Ghost kernel)",
			pts, "native", "vghost"))
		if *csvDir != "" {
			export(experiments.ExportSeries(*csvDir, "figure2", pts))
		}
		record("figure2_thttpd", ns, allocs, ab, seriesMetrics(pts))
	}
	if run("f3") {
		var pts []experiments.BandwidthPoint
		ns, allocs, ab := timed(func() { pts = experiments.Figure3(sc) })
		fmt.Println(experiments.FormatSeries("Figure 3. sshd transfer rate (native vs Virtual Ghost kernel)",
			pts, "native", "vghost"))
		if *csvDir != "" {
			export(experiments.ExportSeries(*csvDir, "figure3", pts))
		}
		record("figure3_sshd", ns, allocs, ab, seriesMetrics(pts))
	}
	if run("f4") {
		var pts []experiments.BandwidthPoint
		ns, allocs, ab := timed(func() { pts = experiments.Figure4(sc) })
		fmt.Println(experiments.FormatSeries("Figure 4. ssh client transfer rate on Virtual Ghost (original vs ghosting)",
			pts, "original", "ghosting"))
		if *csvDir != "" {
			export(experiments.ExportSeries(*csvDir, "figure4", pts))
		}
		record("figure4_ghosting_ssh", ns, allocs, ab, seriesMetrics(pts))
	}
	if run("t5") {
		var res experiments.T5Result
		ns, allocs, ab := timed(func() { res = experiments.Table5(sc) })
		fmt.Println(experiments.FormatTable5(res, sc.PostmarkTxns))
		if *csvDir != "" {
			export(experiments.ExportTable5(*csvDir, res, sc.PostmarkTxns))
		}
		record("table5_postmark", ns, allocs, ab, map[string]float64{"postmark_x": res.Overhead})
	}
	if run("sec") {
		var rows []experiments.SecurityRow
		ns, allocs, ab := timed(func() { rows = experiments.SecurityMatrix() })
		fmt.Println(experiments.FormatSecurity(rows))
		if *csvDir != "" {
			export(experiments.ExportSecurity(*csvDir, rows))
		}
		defended := 0
		for _, r := range rows {
			if r.Defended {
				defended++
			}
		}
		record("security_matrix", ns, allocs, ab, map[string]float64{
			"attacks":  float64(len(rows)),
			"defended": float64(defended),
		})
	}
	if run("cpu") {
		counts := make([]int, 0, len(experiments.CPUCounts))
		for _, n := range experiments.CPUCounts {
			if n <= *cpus {
				counts = append(counts, n)
			}
		}
		var pts []experiments.CPUPoint
		ns, allocs, ab := timed(func() { pts = experiments.CPUScaling(sc, counts) })
		fmt.Println(experiments.FormatCPUScaling(pts))
		if *csvDir != "" {
			export(experiments.ExportCPUScaling(*csvDir, pts))
		}
		metrics := make(map[string]float64)
		for _, p := range pts {
			metrics[fmt.Sprintf("speedup_%dcpu", p.NumCPUs)] = p.Speedup
			for c, u := range p.Utilization {
				metrics[fmt.Sprintf("util_%dcpu_cpu%d", p.NumCPUs, c)] = u
			}
		}
		record("cpu_scaling_ghost_httpd", ns, allocs, ab, metrics)
	}
	if run("c10k") {
		var cmp experiments.C10KCompare
		ns, allocs, ab := timed(func() { cmp = experiments.C10K(sc) })
		fmt.Println(experiments.FormatC10K(cmp))
		if *csvDir != "" {
			export(experiments.ExportC10K(*csvDir, cmp))
		}
		metrics := map[string]float64{"conns": float64(cmp.Conns)}
		for name, r := range map[string]experiments.C10KResult{"native": cmp.Native, "vghost": cmp.VG} {
			metrics[name+"/peak_conns"] = float64(r.PeakConns)
			metrics[name+"/requests"] = float64(r.Requests)
			metrics[name+"/failures"] = float64(r.Failures)
			metrics[name+"/rps"] = r.RPS
			metrics[name+"/p50_us"] = r.P50us
			metrics[name+"/p95_us"] = r.P95us
			metrics[name+"/p99_us"] = r.P99us
			metrics[name+"/idle_killed"] = float64(r.IdleKilled)
			metrics[name+"/rejected_400"] = float64(r.Rejected400)
			metrics[name+"/timeout_kills"] = float64(r.NetStats.TimeoutKills)
		}
		if cmp.Native.RPS > 0 {
			metrics["rps_ratio"] = cmp.VG.RPS / cmp.Native.RPS
		}
		e := record("c10k_eventd", ns, allocs, ab, metrics)
		e.Breakdown = map[string]map[string]uint64{
			"c10k/native": experiments.BreakdownMap(cmp.Native.Ledger),
			"c10k/vghost": experiments.BreakdownMap(cmp.VG.Ledger),
		}
	}
	if run("snap") {
		var rows []experiments.SnapRow
		ns, allocs, ab := timed(func() { rows = experiments.SnapDifferential() })
		fmt.Println(experiments.FormatSnap(rows))
		metrics := make(map[string]float64, 3*len(rows))
		for _, r := range rows {
			// The differential is a hard determinism contract, not a
			// statistic: any cold-vs-warm difference is a bug, and a
			// bench run must not report numbers on top of one.
			if !r.Identical || r.ColdCycles != r.WarmCycles {
				panic(fmt.Sprintf("snapshot determinism violated: %s cold=%d warm=%d bit-identical=%v",
					r.Config, r.ColdCycles, r.WarmCycles, r.Identical))
			}
			metrics[r.Config+"_image_bytes"] = float64(r.ImageBytes)
			metrics[r.Config+"_image_cycles"] = float64(r.ImageCycles)
			metrics[r.Config+"_sealed_pages"] = float64(r.SealedPages)
		}
		record("snapshot_differential", ns, allocs, ab, metrics)
	}
	if *jsonOut {
		path := "BENCH_" + report.Date + ".json"
		if err := experiments.WriteBenchJSON(path, report); err != nil {
			fmt.Fprintf(os.Stderr, "json export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// experimentNames are the valid -only values, in run order.
var experimentNames = []string{"t2", "t3", "t4", "f2", "f3", "f4", "t5", "sec", "cpu", "c10k", "snap"}

// fileRateBreakdowns builds the JSON breakdown map for a Table 3/4 run.
func fileRateBreakdowns(op string, rows []experiments.FileRateRow) map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64, 2*len(rows))
	for _, r := range rows {
		key := fmt.Sprintf("%s_%db", op, r.SizeBytes)
		out[key+"/native"] = experiments.BreakdownMap(r.NativeLedger)
		out[key+"/vghost"] = experiments.BreakdownMap(r.VGLedger)
	}
	return out
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

// seriesMetrics summarizes a bandwidth sweep by its end points.
func seriesMetrics(pts []experiments.BandwidthPoint) map[string]float64 {
	m := make(map[string]float64, 2)
	if len(pts) > 0 {
		m[fmt.Sprintf("ratio_%db", pts[0].SizeBytes)] = pts[0].Ratio
		m[fmt.Sprintf("ratio_%db", pts[len(pts)-1].SizeBytes)] = pts[len(pts)-1].Ratio
	}
	return m
}
