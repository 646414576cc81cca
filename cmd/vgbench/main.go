// Command vgbench regenerates every table and figure of the paper's
// evaluation (§8) plus the §7 security matrix, printing measured values
// beside the paper's as the Markdown tables EXPERIMENTS.md publishes.
// Run with -quick for a fast pass. -json records the run as
// BENCH_<date>.json (virtual overheads + host ns and host allocations
// per experiment) so the perf trajectory is machine-readable across
// PRs. -cpuprofile/-memprofile capture pprof data for
// simulator-efficiency work.
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
	var names []string
	for _, e := range experiments.Experiments {
		names = append(names, e.Name)
	}
	quick := flag.Bool("quick", false, "use small iteration counts")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(names, "|"))
	cpus := flag.Int("cpus", 8, "top of the SMP sweep for the cpu-scaling experiment (1/2/4/8 up to this)")
	jsonOut := flag.Bool("json", false, "also write BENCH_<date>.json with overheads, host ns, and host allocs per experiment")
	breakdown := flag.Bool("breakdown", false, "print per-tag cycle attribution under Table 2/3/4")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *only != "" && !slices.Contains(names, *only) {
		fmt.Fprintf(os.Stderr, "vgbench: unknown -only experiment %q (valid: %s)\n",
			*only, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *cpus < 1 {
		fmt.Fprintf(os.Stderr, "vgbench: -cpus must be at least 1, got %d\n", *cpus)
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

	report := experiments.BenchReport{
		SchemaVersion: experiments.BenchSchemaVersion,
		Date:          time.Now().Format("2006-01-02"),
		Scale:         scaleName,
		NumCPUs:       *cpus,
		HostCPUs:      runtime.NumCPU(),
	}
	for _, e := range experiments.Experiments {
		if *only != "" && *only != e.Name {
			continue
		}
		// Host cost of the run: wall clock plus allocation count/bytes
		// (MemStats deltas, so they include everything the simulator
		// allocated while producing the result).
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res := e.Run(sc, *cpus)
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&m1)
		fmt.Println(res.Table)
		if *breakdown && res.Breakdown != "" {
			fmt.Println(res.Breakdown)
		}
		entry := res.Entry
		entry.HostNs, entry.HostAllocs, entry.HostAllocBytes =
			ns, int64(m1.Mallocs-m0.Mallocs), int64(m1.TotalAlloc-m0.TotalAlloc)
		report.Entries = append(report.Entries, entry)
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
