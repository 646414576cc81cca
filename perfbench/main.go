// Command perfbench is the repository's host-performance benchmark. It
// drives the simulator through its public API on four workloads and
// prints end-to-end metrics (untraced runs) or per-layer metrics (a
// traced run) as one JSON object on the last line of standard output.
//
//	perfbench --workload c10k --seed 1 --seconds 20 --trace 0
//	perfbench --spec    # print BENCHMARK.json
//
// Each run is one fresh process with one simulation goroutine. After an
// untimed warm-up round it repeats rounds of the workload at its fixed
// input size (fresh systems, set-up, timed phase, output checks) until
// the timed phases add up to about --seconds, and reports per-round
// medians, host times on the yardstick's scale (yardstick.go). See
// README.md for why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/hw"
)

// setupFunc boots and seeds fresh systems for one round. It is made
// once per process from the seed, so every round gets the same inputs.
type setupFunc func(tr *tracer) (instance, error)

// instance is one set-up round of a workload.
type instance interface {
	run()               // the timed phase
	check() roundResult // output checks, after the timed phase
	discard()           // stops what set-up started, for a round that will not run
}

// roundResult is what one round's checks found.
type roundResult struct {
	ops, failed int
	ledgers     map[string]hw.Ledger // timed-phase virtual cycles per configuration
	overhead    float64              // vg_overhead_x
	problems    []string
}

func (r *roundResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	setup     func(seed uint64) setupFunc
}

var workloads = []workload{
	{"c10k", "10,000 concurrent connections on native and VG event servers: net/poll paths, NIC delivery, timer wheel and Go allocation do the work", c10kWorkload},
	{"postmark", "Postmark Table 5 shape on native and VG: file create/delete/read/append in the buffer cache, one process, no sockets", postmarkWorkload},
	{"kmodule", "kernel IR routines and a function-pointer dispatch module on native and VG: the vir engine with sandboxing and CFI, no syscalls", kmoduleWorkload},
	{"lmbench", "the nine Table 2 operations on native, VG and shadow: fork/exec/exit, mmap, page faults, signals and context switches", lmbenchWorkload},
}

func modeName(m repro.Mode) string {
	switch m {
	case repro.Native:
		return "native"
	case repro.VirtualGhost:
		return "vghost"
	case repro.Shadow:
		return "shadow"
	}
	return "unknown"
}

var configNames = []string{"native", "vghost", "shadow"}

// boot is the benchmark's one call into the repro constructors.
func boot(tr *tracer, mode repro.Mode, seed uint64, shared *hw.Clock) (*repro.System, error) {
	cfg := hw.DefaultConfig()
	cfg.Seed = seed*2 + 1
	id := tr.begin(kindBoot, 0, 0)
	s, err := repro.NewSystemWithOptions(mode, repro.Options{Machine: cfg, SharedClock: shared})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", modeName(mode), err)
	}
	if err := tr.wrapKernel(s.Kernel); err != nil {
		return nil, err
	}
	return s, nil
}

// --- metrics -----------------------------------------------------------

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd bounds are shares of the parent's median. Host times move
// with the machine: on a shared 2-CPU virtual machine, rounds of
// identical work ran up to twice as long as their neighbours, CPU time
// as much as wall time. The yardstick (yardstick.go) takes most of that
// out, but not all, so the time and memory bounds are the widest
// allowed. Allocation and the modelled overhead are deterministic per
// seed and differ by about one per cent between seeds at most.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"vg_overhead_x", "x", "lower", 0.02},
}

// perLayer lists every per-layer metric a traced run prints.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, n := range spanMetricNames() {
		out = append(out, metricSpec{Name: n, Unit: layerUnit(n), Better: layerBetter(n)})
	}
	out = append(out,
		metricSpec{"go.gc.cycles", "count", "lower", 0},
		metricSpec{"go.gc.cpu_s", "s", "lower", 0},
		metricSpec{"go.alloc.objects", "count", "lower", 0},
	)
	for _, c := range configNames {
		for _, t := range vcycleTags[c] {
			out = append(out, metricSpec{Name: vcyclesName(c, t), Unit: "cycles", Better: "lower"})
		}
	}
	return append(out, metricSpec{"trace.overhead_frac", "frac", "lower", 0})
}

// vcycleTags lists, per configuration, the ledger tags that some
// workload's timed phase charges; the rest read 0 on every workload and
// are left out. A run warns if an unlisted tag turns nonzero.
var vcycleTags = map[string][]hw.Tag{
	"native": {hw.TagMemAccess, hw.TagEngine, hw.TagTrap, hw.TagTLB, hw.TagCrypt,
		hw.TagSched, hw.TagIO, hw.TagCompute, hw.TagNet},
	"vghost": {hw.TagMemAccess, hw.TagSandbox, hw.TagCFI, hw.TagEngine, hw.TagTrap,
		hw.TagICSave, hw.TagMMUCheck, hw.TagTLB, hw.TagCrypt, hw.TagSched, hw.TagIO,
		hw.TagCompute, hw.TagNet},
	"shadow": {hw.TagMemAccess, hw.TagEngine, hw.TagTrap, hw.TagTLB, hw.TagCrypt,
		hw.TagSched, hw.TagIO, hw.TagShadow, hw.TagCompute},
}

func vcyclesName(config string, t hw.Tag) string { return "hw.vcycles." + config + "." + t.String() }

func layerUnit(name string) string {
	switch filepath.Ext(name) {
	case ".calls", ".errs":
		return "count"
	case ".busy_ms", ".wait_ms", ".ms":
		return "ms"
	case ".alloc_mb":
		return "MB"
	case ".events_per_wait":
		return "events/wait"
	case ".eagain_frac":
		return "frac"
	}
	return "count"
}

func layerBetter(name string) string {
	if filepath.Ext(name) == ".events_per_wait" {
		return "higher"
	}
	return "lower"
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 20

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}

// --- the run -------------------------------------------------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// minSetups is how many set-ups every run times, at least, for the
// setup_s median.
const minSetups = 7

// roundTimes is one round's host measurements. setup, host and cpu are
// on the yardstick's scale (yardstick.go); raw is the timed phase's wall
// time as measured, less the yardstick's slices.
type roundTimes struct {
	setup, host, cpu, raw, allocMB, gcCycles, gcCPU, objects float64
}

// setupSlices is how many slices of the yardstick measure the machine's
// speed right before each set-up.
const setupSlices = 3

// yard is the run's yardstick. It is off during a traced round, whose
// spans would otherwise count its slices as the program's time.
var yard = newYardstick()

type runner struct {
	setup    setupFunc
	ops      int
	failed   int
	problems []string
	ledgers  map[string]hw.Ledger // first round's, the reference for every later round
	overhead float64
}

// round runs one round: GC, set-up, GC, timed phase, checks. Its
// allocation covers set-up and the timed phase: the timed phase alone
// allocates nothing on kmodule, and a metric must never read 0. A
// traced round's times are raw: its yardstick is off.
func (r *runner) round(tr *tracer) (roundTimes, roundResult, error) {
	runtime.GC()
	scale := yard.scale(setupSlices)
	a0 := sampleHost().allocs
	t0 := time.Now()
	inst, err := r.setup(tr)
	if err != nil {
		return roundTimes{}, roundResult{}, err
	}
	setup := time.Since(t0).Seconds()
	runtime.GC()
	yard.off = tr != nil
	if tr != nil {
		tr.sysOn = true
	} else {
		yard.begin()
	}
	h0 := sampleHost()
	inst.run()
	h1 := sampleHost()
	wall, cpu := h1.wall.Sub(h0.wall).Seconds(), (h1.cpu - h0.cpu).Seconds()
	raw, host := wall, wall
	if tr != nil {
		tr.sysOn = false
		yard.off = false
	} else {
		raw, host = yard.end()
		// The slices ran on this thread: CPU time less their wall
		// time, scaled as the wall time was.
		cpu = (cpu - (wall - raw)) * host / raw
		setup *= scale
	}
	res := inst.check()
	return roundTimes{
		setup:    setup,
		host:     host,
		cpu:      cpu,
		raw:      raw,
		allocMB:  float64(h1.allocs-a0) / mb,
		gcCycles: float64(h1.gcs - h0.gcs),
		gcCPU:    h1.gcCPU - h0.gcCPU,
		objects:  float64(h1.objects - h0.objects),
	}, res, nil
}

// record folds a round's checks into the run, and fails the run if its
// virtual cycles differ from the first round's: rounds of one seed must
// be bit-identical.
func (r *runner) record(res roundResult, label string) {
	r.ops += res.ops
	r.failed += res.failed
	for _, p := range res.problems {
		r.problems = append(r.problems, label+": "+p)
	}
	if r.ledgers == nil {
		r.ledgers, r.overhead = res.ledgers, res.overhead
		return
	}
	for _, c := range configNames {
		got, want := res.ledgers[c], r.ledgers[c]
		if got != want {
			r.problems = append(r.problems, fmt.Sprintf("%s: %s virtual cycles differ from the first round's (%d vs %d)",
				label, c, got.Total(), want.Total()))
		}
	}
	if res.overhead != r.overhead {
		r.problems = append(r.problems, fmt.Sprintf("%s: vg_overhead_x %v differs from the first round's %v",
			label, res.overhead, r.overhead))
	}
}

// spanDir is where a traced run writes its spans, one file per
// workload, overwritten by the next traced run of that workload.
const spanDir = ".bench_build/spans"

func runBenchmark(w workload, seed uint64, seconds float64, traced bool) (report, error) {
	r := &runner{setup: w.setup(seed)}
	target := seconds
	if traced {
		target = seconds / 2 // the traced round takes the rest
	}
	// A warm-up round grows the heap, fills the caches and trains the
	// branch predictors; its output is checked but its times are not
	// kept.
	_, res, err := r.round(nil)
	if err != nil {
		return report{}, err
	}
	r.record(res, "warm-up round")
	// Rounds run while one more would bring the timed total closer to
	// the target, so long rounds overshoot by half a round at most.
	var rounds []roundTimes
	timed := 0.0
	for len(rounds) == 0 || timed+rounds[len(rounds)-1].raw/2 < target {
		rt, res, err := r.round(nil)
		if err != nil {
			return report{}, err
		}
		rounds = append(rounds, rt)
		r.record(res, fmt.Sprintf("round %d", len(rounds)))
		timed += rt.raw
	}
	setups := make([]float64, 0, minSetups)
	for _, rt := range rounds {
		setups = append(setups, rt.setup)
	}
	for !traced && len(setups) < minSetups {
		runtime.GC()
		scale := yard.scale(setupSlices)
		t0 := time.Now()
		inst, err := r.setup(nil)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds()*scale)
		inst.discard()
	}
	column := func(f func(roundTimes) float64) []float64 {
		xs := make([]float64, len(rounds))
		for i, rt := range rounds {
			xs[i] = f(rt)
		}
		return xs
	}
	col := func(f func(roundTimes) float64) float64 { return median(column(f)) }
	rawHost := func(rt roundTimes) float64 { return rt.raw }
	scaledHost := func(rt roundTimes) float64 { return rt.host }
	rawMedian := col(rawHost)
	fmt.Printf("workload %s seed %d rounds %d set-ups %d trace %v\n", w.name, seed, len(rounds), len(setups), traced)
	// The noise band within this run: quartiles of the per-round times,
	// on the yardstick's scale and raw.
	for _, c := range []struct {
		name string
		f    func(roundTimes) float64
	}{{"host_s", scaledHost}, {"raw host_s", rawHost}} {
		if q1, q2, q3, err := quartiles(column(c.f)); err == nil {
			fmt.Printf("round %s quartiles %.4f %.4f %.4f s (spread %.3f)\n", c.name, q1, q2, q3, (q3-q1)/q2)
		}
	}

	metrics := map[string]metricValue{}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		metrics["setup_s"] = metricValue{median(setups), "s"}
		metrics["host_s"] = metricValue{col(scaledHost), "s"}
		metrics["cpu_s"] = metricValue{col(func(rt roundTimes) float64 { return rt.cpu }), "s"}
		metrics["alloc_mb"] = metricValue{col(func(rt roundTimes) float64 { return rt.allocMB }), "MB"}
		metrics["peak_rss_mb"] = metricValue{rss, "MB"}
		metrics["vg_overhead_x"] = metricValue{r.overhead, "x"}
	} else {
		tr := newTracer()
		rt, res, err := r.round(tr)
		if err != nil {
			return report{}, err
		}
		r.record(res, "traced round")
		layer := layerMetrics(tr.spans, tr.sysOverhead)
		layer["go.gc.cycles"] = col(func(rt roundTimes) float64 { return rt.gcCycles })
		layer["go.gc.cpu_s"] = col(func(rt roundTimes) float64 { return rt.gcCPU })
		layer["go.alloc.objects"] = col(func(rt roundTimes) float64 { return rt.objects })
		for _, c := range configNames {
			l := r.ledgers[c]
			for t := hw.Tag(0); t < hw.NumTags; t++ {
				layer[vcyclesName(c, t)] = float64(l[t])
				if l[t] != 0 && !slices.Contains(vcycleTags[c], t) {
					fmt.Fprintf(os.Stderr, "warning: %s charges %d cycles, not a reported metric\n", vcyclesName(c, t), l[t])
				}
			}
		}
		layer["trace.overhead_frac"] = rt.raw/rawMedian - 1
		for _, s := range perLayer() {
			metrics[s.Name] = metricValue{layer[s.Name], s.Unit}
		}
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return report{}, err
		}
		path := filepath.Join(spanDir, w.name+".tsv")
		if err := writeSpans(path, tr.spans); err != nil {
			return report{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	return report{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: c10k, postmark, kmodule or lmbench")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", runSeconds, "timed seconds to measure, summed over rounds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printSpec {
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload c10k|postmark|kmodule|lmbench --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	// One process, few threads, fixed GC, whatever the environment says:
	// GOGC 100, no memory limit, and one P. The simulation runs one
	// goroutine at a time anyway; with a second P the collector's share
	// of wall time depended on whether another CPU happened to be free,
	// and process hand-offs crossed threads (lmbench spent a third more
	// CPU).
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	rep, err := runBenchmark(*w, *seed, *seconds, *trace == 1)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("%-34s %14d count\n%-34s %14d count\n", "ops", rep.Attempted, "failed_ops", rep.Failed)
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
