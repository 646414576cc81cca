package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro"
	"repro/internal/kernel"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// sysSpan is a finished syscall span for synthetic traces.
func sysSpan(start, end int64, pid int32, num uint64, ret uint64) span {
	return span{start: start, end: end, pid: pid, sys: uint16(num), kind: kindSys, ret: ret, parent: -1}
}

func TestAccountSelfTimeNested(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, kind: kindRun, parent: -1},
		sysSpan(10, 20, 1, kernel.SysGetpid, 1),
		{start: 30, end: 60, kind: kindClient, parent: 0},
		sysSpan(70, 90, 1, kernel.SysGetpid, 1),
	}
	acc := account(spans)
	want := []int64{100 - 10 - 30 - 20, 10, 30, 20}
	if !reflect.DeepEqual(acc.self, want) {
		t.Errorf("self = %v, want %v", acc.self, want)
	}
	for i, b := range acc.blocked {
		if b {
			t.Errorf("span %d blocked, want none blocked", i)
		}
	}
}

// A pollwait that blocks encloses another process's syscalls: it is a
// blocked call (wait_ms), the inner calls are busy, and the pollwait's
// own work before and after blocking is its self time, which lands in
// kernel.other.ms.
func TestAccountBlockedPollWait(t *testing.T) {
	spans := []span{
		{start: 0, end: 200, kind: kindRun, parent: -1},
		sysSpan(10, 150, 1, kernel.SysPollWait, 3),   // blocks
		sysSpan(20, 40, 2, kernel.SysRecv, 100),      // server proc runs
		sysSpan(50, 60, 2, kernel.SysRecv, eagain()), // nonblocking miss
		sysSpan(70, 90, 2, kernel.SysSendTo, 10),
		sysSpan(160, 170, 1, kernel.SysPollCtl, 0),
		sysSpan(180, 190, 1, kernel.SysSelect, ^uint64(0)), // all 64 ready
	}
	spans[2].parent, spans[3].parent, spans[4].parent = 1, 1, 1
	acc := account(spans)
	if !acc.blocked[1] {
		t.Fatal("pollwait enclosing other spans not marked blocked")
	}
	for _, i := range []int{2, 3, 4, 5, 6} {
		if acc.blocked[i] {
			t.Errorf("span %d marked blocked", i)
		}
	}
	if got, want := acc.self[1], int64(140-20-10-20); got != want {
		t.Errorf("pollwait self = %d, want %d", got, want)
	}
	if got, want := acc.self[0], int64(200-140-10-10); got != want {
		t.Errorf("run self = %d, want %d", got, want)
	}

	m := layerMetrics(spans, 0)
	check := func(name string, want float64) {
		t.Helper()
		if !near(m[name], want) {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	check("kernel.poll.calls", 3)
	check("kernel.poll.errs", 0)
	check("kernel.poll.wait_ms", 140/nsPerMs)
	check("kernel.poll.busy_ms", 20/nsPerMs)
	check("kernel.net.calls", 3)
	check("kernel.net.busy_ms", 50/nsPerMs)
	check("kernel.net.wait_ms", 0)
	check("kernel.net.errs", 1)
	check("kernel.net.eagain_frac", 0.5)
	check("kernel.poll.events_per_wait", 3)
	check("kernel.run.ms", 200/nsPerMs)
	// other = run - busy syscalls - client = 200 - 70 = 130 ns, which is
	// the run's self time (40) plus the blocked pollwait's (90).
	check("kernel.other.ms", 130/nsPerMs)
}

func eagain() uint64 { return ^uint64(kernel.EAGAIN) + 1 } // -EAGAIN

// A blocked call can outlive a span that began inside it (the other
// process's call blocks too, and is resumed later). Each instant still
// belongs to exactly one span.
func TestAccountPartialOverlap(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, kind: kindRun, parent: -1},
		sysSpan(10, 50, 1, kernel.SysPollWait, 1),
		sysSpan(20, 70, 2, kernel.SysRecv, 5),
		sysSpan(30, 40, 3, kernel.SysGetpid, 3),
	}
	acc := account(spans)
	if !acc.blocked[1] || !acc.blocked[2] || acc.blocked[3] {
		t.Errorf("blocked = %v, want [false true true false]", acc.blocked)
	}
	var sum int64
	for _, s := range acc.self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the run's 100", sum)
	}
	// The recv owns [20,30) and [40,70): it is innermost there, the
	// pollwait only before the recv began.
	if want := []int64{40, 10, 40, 10}; !reflect.DeepEqual(acc.self, want) {
		t.Errorf("self = %v, want %v", acc.self, want)
	}
	// The wrappers' own time is taken out of kernel.other.ms.
	m := layerMetrics(spans, 5)
	if want := (100 - 10 - 5) / nsPerMs; !near(m["kernel.other.ms"], want) {
		t.Errorf("kernel.other.ms = %v, want %v", m["kernel.other.ms"], want)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	run := tr.begin(kindRun, 0, 0)
	a := tr.begin(kindSys, 1, kernel.SysPollWait)
	b := tr.begin(kindSys, 2, kernel.SysRecv)
	tr.end(a) // the pollwait returns before the recv it enclosed
	c := tr.begin(kindSys, 1, kernel.SysGetpid)
	tr.end(c)
	tr.end(b)
	tr.end(run)
	parents := []int32{-1, run, a, b}
	for i, s := range tr.spans {
		if s.parent != parents[i] {
			t.Errorf("span %d parent %d, want %d", i, s.parent, parents[i])
		}
		if s.end < s.start {
			t.Errorf("span %d not closed", i)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
	var nilTracer *tracer
	if id := nilTracer.begin(kindRun, 0, 0); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(0)
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{10, 1, 7, 3, 9}, 2, 7, 9.5},
		{[]float64{0.91, 0.87, 0.95, 0.9, 0.88, 0.93, 0.92, 0.89, 0.94, 0.96, 0.9}, 0.89, 0.91, 0.94},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v %v %v", c.xs, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
	if median(nil) != 0 || median([]float64{4, 1}) != 2.5 {
		t.Error("median of empty or even-length input")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s may name a workload or a metric: a
// letter or digit first, then up to 63 more letters, digits, '_', '.'
// or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s may be a metric's unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestMetricNamesValid(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "kernel.net.eagain%", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"host_s", "hw.vcycles.vghost.mem-access", "9lives"} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	sp := benchmarkSpec()
	seen := map[string]bool{}
	all := append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...)
	for _, w := range sp.Workloads {
		all = append(all, metricSpec{Name: w.Name, Unit: "x"})
	}
	for _, m := range all {
		if !validName(m.Name) || !validUnit(m.Unit) {
			t.Errorf("invalid metric %q unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(sp.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(sp.PerLayer))
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// BENCHMARK.json at the repository root is the output of --spec.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from benchmarkSpec(); regenerate it with --spec")
	}
}

func TestC10KPlanCohorts(t *testing.T) {
	want := [numCohorts]int{7800, 900, 1000, 200, 100}
	var firstOrder []connPlan
	for _, seed := range []uint64{1, 2, 99} {
		plan := c10kPlan(seed, c10kConns)
		if len(plan) != c10kConns {
			t.Fatalf("seed %d: %d connections, want %d", seed, len(plan), c10kConns)
		}
		var counts [numCohorts]int
		var perFile [numCohorts][3]int
		for _, c := range plan {
			counts[c.cohort]++
			perFile[c.cohort][c.file]++
		}
		if counts != want {
			t.Errorf("seed %d: cohort counts %v, want %v", seed, counts, want)
		}
		for c, files := range perFile {
			if max(files[0], files[1], files[2])-min(files[0], files[1], files[2]) > 1 {
				t.Errorf("seed %d cohort %d: files %v not balanced", seed, c, files)
			}
		}
		e := expectFor(plan)
		if e.requests != (7800+900+1000)*c10kRequests || e.idleKilled != 200 || e.rejected != 100 {
			t.Errorf("seed %d: expected outcomes %+v", seed, e)
		}
		if firstOrder == nil {
			firstOrder = plan
		} else if reflect.DeepEqual(firstOrder, plan) {
			t.Errorf("seed %d: same connection order as seed 1", seed)
		}
		if again := c10kPlan(seed, c10kConns); !reflect.DeepEqual(again, plan) {
			t.Errorf("seed %d: plan not reproducible", seed)
		}
	}
}

// The module and the kernel's IR routines agree with the Go references
// on both configurations.
func TestKModuleStepsMatchReference(t *testing.T) {
	steps := kmodPlan(7)
	setup := kmoduleWorkload(7)
	inst, err := setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	km := inst.(*kmodInstance)
	for _, s := range km.sides {
		for _, st := range steps[:12] {
			s.step(nil, st)
		}
		if s.failures > 0 {
			t.Errorf("%s: %v", modeName(s.mode), s.errs)
		}
	}
	if km.sides[1].mode != repro.VirtualGhost {
		t.Fatal("second side is not Virtual Ghost")
	}
	// Set-up warms every kind of step once.
	var kinds [numStepKinds]int
	for _, st := range kmodWarmSteps() {
		kinds[st.kind]++
	}
	if kinds != [numStepKinds]int{1, 1, 1} {
		t.Errorf("warm-up steps per kind %v, want one of each", kinds)
	}
}

func TestScaleUnits(t *testing.T) {
	ms := time.Millisecond
	sl := func(at, took, pass time.Duration) yardSlice { return yardSlice{at: at, end: at + took, pass: pass} }
	// Two units of 10 ms; a 1 ms slice begins inside the second. Every
	// pass takes twice yardNominal, so the machine runs at half speed.
	slices := []yardSlice{sl(0, ms, 2*yardNominal), sl(15*ms, ms, 2*yardNominal), sl(25*ms, ms, 2*yardNominal)}
	raw, scaled := scaleUnits([]time.Duration{ms, 11 * ms, 21 * ms}, slices)
	if want := 0.019 * math.Pow(0.5, yardExponent); !near(raw, 0.019) || !near(scaled, want) {
		t.Errorf("half speed: raw %v scaled %v, want 0.019 %v", raw, scaled, want)
	}
	// A unit takes its speed from the slices nearest its middle: the
	// fast slice at 100 ms, not the slow ones long before it.
	slices = []yardSlice{
		sl(0, ms, 4*yardNominal), sl(2*ms, ms, 4*yardNominal), sl(4*ms, ms, 4*yardNominal),
		sl(100*ms, ms, yardNominal/2), sl(101*ms, ms, yardNominal/2), sl(102*ms, ms, yardNominal/2),
	}
	raw, scaled = scaleUnits([]time.Duration{90 * ms, 100 * ms}, slices)
	// Of the five nearest (100, 101, 102, 4, 2 ms), the median pass is
	// yardNominal/2: the unit ran at twice the nominal speed.
	if want := 0.010 * math.Pow(2, yardExponent); !near(raw, 0.010) || !near(scaled, want) {
		t.Errorf("fast machine: raw %v scaled %v, want 0.010 %v", raw, scaled, want)
	}
	// Without slices a unit keeps its raw time.
	if raw, scaled := scaleUnits([]time.Duration{0, 5 * ms}, nil); !near(raw, 0.005) || !near(scaled, 0.005) {
		t.Errorf("no slices: raw %v scaled %v", raw, scaled)
	}
}

// A tick allocates nothing, so the yardstick never triggers or feeds a
// collection inside a timed phase.
func TestYardstickTickAllocatesNothing(t *testing.T) {
	y := newYardstick()
	y.begin()
	if n := testing.AllocsPerRun(200, func() { y.tick(); y.slice() }); n != 0 {
		t.Errorf("tick and slice allocate %v times per call", n)
	}
	raw, scaled := y.end()
	if !(raw > 0) || !(scaled > 0) {
		t.Errorf("end() = %v, %v", raw, scaled)
	}
	y.off = true
	n := len(y.marks)
	y.tick()
	if len(y.marks) != n {
		t.Error("a switched-off yardstick marked a unit")
	}
}
