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
	record := func(ns, allocs, allocBytes int64, e experiments.BenchEntry) {
		e.HostNs, e.HostAllocs, e.HostAllocBytes = ns, allocs, allocBytes
		report.Entries = append(report.Entries, e)
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
		record(ns, allocs, ab, experiments.Table2Entry(rows))
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
		record(ns, allocs, ab, experiments.Table3Entry(rows))
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
		record(ns, allocs, ab, experiments.Table4Entry(rows))
	}
	if run("f2") {
		var pts []experiments.BandwidthPoint
		ns, allocs, ab := timed(func() { pts = experiments.Figure2(sc) })
		fmt.Println(experiments.FormatSeries("Figure 2. thttpd bandwidth (native vs Virtual Ghost kernel)",
			pts, "native", "vghost"))
		if *csvDir != "" {
			export(experiments.ExportSeries(*csvDir, "figure2", pts))
		}
		record(ns, allocs, ab, experiments.Figure2Entry(pts))
	}
	if run("f3") {
		var pts []experiments.BandwidthPoint
		ns, allocs, ab := timed(func() { pts = experiments.Figure3(sc) })
		fmt.Println(experiments.FormatSeries("Figure 3. sshd transfer rate (native vs Virtual Ghost kernel)",
			pts, "native", "vghost"))
		if *csvDir != "" {
			export(experiments.ExportSeries(*csvDir, "figure3", pts))
		}
		record(ns, allocs, ab, experiments.Figure3Entry(pts))
	}
	if run("f4") {
		var pts []experiments.BandwidthPoint
		ns, allocs, ab := timed(func() { pts = experiments.Figure4(sc) })
		fmt.Println(experiments.FormatSeries("Figure 4. ssh client transfer rate on Virtual Ghost (original vs ghosting)",
			pts, "original", "ghosting"))
		if *csvDir != "" {
			export(experiments.ExportSeries(*csvDir, "figure4", pts))
		}
		record(ns, allocs, ab, experiments.Figure4Entry(pts))
	}
	if run("t5") {
		var res experiments.T5Result
		ns, allocs, ab := timed(func() { res = experiments.Table5(sc) })
		fmt.Println(experiments.FormatTable5(res, sc.PostmarkTxns))
		if *csvDir != "" {
			export(experiments.ExportTable5(*csvDir, res, sc.PostmarkTxns))
		}
		record(ns, allocs, ab, experiments.Table5Entry(res))
	}
	if run("sec") {
		var rows []experiments.SecurityRow
		ns, allocs, ab := timed(func() { rows = experiments.SecurityMatrix() })
		fmt.Println(experiments.FormatSecurity(rows))
		if *csvDir != "" {
			export(experiments.ExportSecurity(*csvDir, rows))
		}
		record(ns, allocs, ab, experiments.SecurityEntry(rows))
	}
	if run("cpu") {
		var pts []experiments.CPUPoint
		ns, allocs, ab := timed(func() { pts = experiments.CPUScaling(sc, experiments.CPUCountsUpTo(*cpus)) })
		fmt.Println(experiments.FormatCPUScaling(pts))
		if *csvDir != "" {
			export(experiments.ExportCPUScaling(*csvDir, pts))
		}
		record(ns, allocs, ab, experiments.CPUScalingEntry(pts))
	}
	if run("c10k") {
		var cmp experiments.C10KCompare
		ns, allocs, ab := timed(func() { cmp = experiments.C10K(sc) })
		fmt.Println(experiments.FormatC10K(cmp))
		if *csvDir != "" {
			export(experiments.ExportC10K(*csvDir, cmp))
		}
		record(ns, allocs, ab, experiments.C10KEntry(cmp))
	}
	if run("snap") {
		var rows []experiments.SnapRow
		ns, allocs, ab := timed(func() { rows = experiments.SnapDifferential() })
		fmt.Println(experiments.FormatSnap(rows))
		record(ns, allocs, ab, experiments.SnapEntry(rows))
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
