package hw

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// clockModel is the charge paths as the obvious structures: a cycle
// count, a machine-wide ledger kept beside the per-CPU ledgers, the
// open user phase's segment and phase sums and held events, and the
// trace events the attached tracer should hold.
type clockModel struct {
	cycles uint64
	ledger Ledger
	perCPU []Ledger
	cpu    int
	pid    int32
	ctx    uint32
	traced bool
	events []TraceEvent

	phase    bool
	seg      uint64 // cycles of the open segment
	phaseSum uint64 // cycles of the phase's closed segments
	held     []TraceEvent
	outerCPU int // selected CPU and trace context before the phase
	outerPID int32
	outerCtx uint32
}

type clockOpKind int

const (
	opCharge clockOpKind = iota
	opChargeBytes
	opSetCPU
	opEnsureCPUs
	opAttach
	opDetach
	opContext
	opBeginPhase
	opBeginSegment
	opEndSegment
	opEndPhase
	opSnapshot
)

// clockOp is one call on a Clock. cpu is the CPU argument (the CPU
// count for EnsureCPUs, the pid for SetContext; BeginSegment stamps
// pid cpu+100); n is the cycle count (the byte count for ChargeBytes,
// the context word for SetContext, the extra CPUs of the fresh clock a
// snapshot is applied to).
type clockOp struct {
	kind clockOpKind
	cpu  int
	tag  Tag
	n    uint64
}

func (op clockOp) String() string {
	names := [...]string{"Charge", "ChargeBytes", "SetCPU", "EnsureCPUs",
		"AttachTracer", "AttachTracer(nil)", "SetContext", "BeginUserPhase",
		"BeginSegment", "EndSegment", "EndUserPhase", "snapshot"}
	return fmt.Sprintf("%s(cpu=%d, tag=%v, n=%d)", names[op.kind], op.cpu, op.tag, op.n)
}

// chargeBytesCost is the per-8-byte cost the ChargeBytes ops use.
const chargeBytesCost = 3

// apply runs op on *c and returns what it returned (EndSegment's
// cycles, else 0) and whether it panicked. A snapshot replaces *c with
// a fresh clock restored from the old one's image.
func (op clockOp) apply(c **Clock) (ret uint64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	clk := *c
	switch op.kind {
	case opCharge:
		clk.Charge(op.tag, op.n)
	case opChargeBytes:
		clk.ChargeBytes(op.tag, int(op.n), chargeBytesCost)
	case opSetCPU:
		clk.SetCPU(op.cpu)
	case opEnsureCPUs:
		clk.EnsureCPUs(op.cpu)
	case opAttach:
		clk.AttachTracer(NewTracer(1 << 11))
	case opDetach:
		clk.AttachTracer(nil)
	case opContext:
		clk.SetContext(int32(op.cpu), uint32(op.n))
	case opBeginPhase:
		clk.BeginUserPhase()
	case opBeginSegment:
		clk.BeginSegment(op.cpu, int32(op.cpu+100))
	case opEndSegment:
		return clk.EndSegment(), false
	case opEndPhase:
		clk.EndUserPhase()
	case opSnapshot:
		img := clk.captureSnap()
		fresh := &Clock{}
		if op.n > 0 {
			fresh.EnsureCPUs(len(img.PerCPU) + int(op.n))
		}
		fresh.applySnap(&img)
		*c = fresh
	}
	return 0, false
}

func (m *clockModel) ensure(n int) {
	for len(m.perCPU) < n {
		m.perCPU = append(m.perCPU, Ledger{})
	}
}

// charge is one charge: inside a phase it is timed from the epoch base
// plus the open segment and held; outside one it advances the clock.
func (m *clockModel) charge(tag Tag, n uint64) {
	ev := TraceEvent{Tag: tag, CPU: int32(m.cpu), PID: m.pid, Ctx: m.ctx, Start: m.cycles + m.seg, Dur: n}
	if m.phase {
		m.seg += n
		if m.traced && n > 0 {
			m.held = append(m.held, ev)
		}
	} else {
		m.cycles += n
		if m.traced && n > 0 {
			m.events = append(m.events, ev)
		}
	}
	m.ledger[tag] += n
	if m.perCPU != nil {
		m.perCPU[m.cpu][tag] += n
	}
}

// apply runs op on the model and returns what the clock must return
// and whether it must panic.
func (m *clockModel) apply(op clockOp) (ret uint64, wantPanic bool) {
	switch op.kind {
	case opCharge:
		m.charge(op.tag, op.n)
	case opChargeBytes:
		m.charge(op.tag, (op.n+7)/8*chargeBytesCost)
	case opSetCPU:
		m.ensure(op.cpu + 1)
		m.cpu = op.cpu
	case opEnsureCPUs:
		m.ensure(op.cpu)
	case opAttach, opDetach:
		if m.phase {
			return 0, true
		}
		m.traced, m.events = op.kind == opAttach, nil
	case opContext:
		m.pid, m.ctx = int32(op.cpu), uint32(op.n)
	case opBeginPhase:
		if m.phase {
			return 0, true
		}
		m.phase = true
		m.outerCPU, m.outerPID, m.outerCtx = m.cpu, m.pid, m.ctx
	case opBeginSegment:
		if !m.phase {
			return 0, true
		}
		m.ensure(op.cpu + 1)
		m.cpu, m.pid, m.ctx = op.cpu, int32(op.cpu+100), 0
	case opEndSegment:
		ret = m.seg
		m.phaseSum += m.seg
		m.seg = 0
	case opEndPhase:
		if !m.phase {
			return 0, true
		}
		m.phase = false
		m.cycles += m.phaseSum + m.seg
		m.phaseSum, m.seg = 0, 0
		m.cpu, m.pid, m.ctx = m.outerCPU, m.outerPID, m.outerCtx
		sort.SliceStable(m.held, func(i, j int) bool {
			a, b := m.held[i], m.held[j]
			return a.Start < b.Start || a.Start == b.Start && a.CPU < b.CPU
		})
		m.events = append(m.events, m.held...)
		m.held = nil
	case opSnapshot:
		// The image carries cycles, the ledgers and the selected CPU; a
		// fresh clock has no tracer and no trace context.
		if op.n > 0 {
			m.ensure(len(m.perCPU) + int(op.n))
		}
		m.ensure(m.cpu + 1)
		m.traced, m.events = false, nil
		m.pid, m.ctx = 0, 0
	}
	return ret, false
}

// randomOp draws an operation that is legal in the model's state, or
// one that must panic (a second BeginUserPhase, or a tracer attached or
// detached, inside a phase; BeginSegment or EndUserPhase outside one).
// Snapshots are taken only between phases, as Machine.CaptureSnap
// requires.
func (m *clockModel) randomOp(rng *rand.Rand) clockOp {
	tag := Tag(rng.Intn(int(NumTags)))
	var n uint64
	switch rng.Intn(3) {
	case 0:
		n = 0
	case 1:
		n = uint64(rng.Intn(16))
	default:
		n = uint64(rng.Intn(1 << 20))
	}
	cpus := max(1, len(m.perCPU))
	r := rng.Intn(100)
	if m.phase {
		switch {
		case r < 50:
			return clockOp{kind: opCharge, tag: tag, n: n}
		case r < 58:
			return clockOp{kind: opChargeBytes, tag: tag, n: n}
		case r < 70:
			return clockOp{kind: opBeginSegment, cpu: rng.Intn(cpus)}
		case r < 80:
			return clockOp{kind: opEndSegment}
		case r < 83:
			return clockOp{kind: opSetCPU, cpu: rng.Intn(cpus)}
		case r < 85:
			return clockOp{kind: opContext, cpu: rng.Intn(8), n: n}
		case r < 87:
			return clockOp{kind: opEnsureCPUs, cpu: cpus + rng.Intn(2)}
		case r < 89:
			return clockOp{kind: opBeginPhase}
		case r < 90:
			return clockOp{kind: opAttach}
		case r < 91:
			return clockOp{kind: opDetach}
		default:
			return clockOp{kind: opEndPhase}
		}
	}
	switch {
	case r < 35:
		return clockOp{kind: opCharge, tag: tag, n: n}
	case r < 45:
		return clockOp{kind: opChargeBytes, tag: tag, n: n}
	case r < 55:
		return clockOp{kind: opSetCPU, cpu: rng.Intn(cpus + 2)}
	case r < 60:
		return clockOp{kind: opEnsureCPUs, cpu: cpus + rng.Intn(3)}
	case r < 66:
		return clockOp{kind: opAttach}
	case r < 70:
		return clockOp{kind: opDetach}
	case r < 74:
		return clockOp{kind: opContext, cpu: rng.Intn(8), n: n}
	case r < 84:
		return clockOp{kind: opBeginPhase}
	case r < 86:
		return clockOp{kind: opBeginSegment, cpu: rng.Intn(cpus)}
	case r < 87:
		return clockOp{kind: opEndSegment}
	case r < 88:
		return clockOp{kind: opEndPhase}
	default:
		return clockOp{kind: opSnapshot, n: uint64(rng.Intn(3))}
	}
}

// checkClock compares every reading of c with the model: the
// machine-wide ledger, the total (frozen at the epoch base inside a
// phase, while the ledgers run ahead by the phase's segments), each
// CPU's ledger (one index past each end included), the phase state,
// and the tracer's recorded and held events.
func checkClock(t *testing.T, step int, op clockOp, c *Clock, m *clockModel) {
	t.Helper()
	l := c.Ledger()
	if l != m.ledger {
		t.Fatalf("step %d %v: Ledger() = %v, model %v", step, op, l, m.ledger)
	}
	if c.Cycles() != m.cycles || l.Total() != m.cycles+m.phaseSum+m.seg {
		t.Fatalf("step %d %v: Cycles() = %d, Ledger().Total() = %d, model %d + phase %d + segment %d",
			step, op, c.Cycles(), l.Total(), m.cycles, m.phaseSum, m.seg)
	}
	for i := -1; i <= len(m.perCPU); i++ {
		var want Ledger
		if i >= 0 && i < len(m.perCPU) {
			want = m.perCPU[i]
		}
		if got := c.CPULedger(i); got != want {
			t.Fatalf("step %d %v: CPULedger(%d) = %v, model %v", step, op, i, got, want)
		}
	}
	if c.phase != m.phase || c.seg != m.seg || c.phaseSum != m.phaseSum {
		t.Fatalf("step %d %v: phase %v segment %d sum %d, model %v %d %d",
			step, op, c.phase, c.seg, c.phaseSum, m.phase, m.seg, m.phaseSum)
	}
	if c.TracerAttached() != m.traced {
		t.Fatalf("step %d %v: TracerAttached() = %v, model %v", step, op, c.TracerAttached(), m.traced)
	}
	if m.traced {
		if got := c.tracer.Events(); !slices.Equal(got, m.events) {
			t.Fatalf("step %d %v: tracer holds %d events, model %d\n got %v\nwant %v", step, op, len(got), len(m.events), got, m.events)
		}
		if !slices.Equal(c.tracer.held, m.held) {
			t.Fatalf("step %d %v: tracer holds back %v, model %v", step, op, c.tracer.held, m.held)
		}
	}
}

// runClockOps applies ops to a bare Clock{} and to a fresh model,
// checking the clock against the model after every operation.
func runClockOps(t *testing.T, ops []clockOp) {
	t.Helper()
	c := &Clock{}
	m := &clockModel{}
	for step, op := range ops {
		wantRet, wantPanic := m.apply(op)
		ret, panicked := op.apply(&c)
		if panicked != wantPanic || ret != wantRet {
			t.Fatalf("step %d %v: returned %d, panicked %v; model %d, %v", step, op, ret, panicked, wantRet, wantPanic)
		}
		checkClock(t, step, op, c, m)
	}
}

// TestClockMatchesModel drives the charge paths (the inlined fast path
// and every slow-path case: a zero-value clock, an attached tracer, an
// open user phase) against clockModel, with per-CPU ledgers grown,
// tracers attached and detached, user phases opened and closed with
// segments on any CPU, and the clock round-tripped through a snapshot
// image onto a fresh one.
func TestClockMatchesModel(t *testing.T) {
	cases := []struct {
		name string
		ops  []clockOp
	}{
		{"zero-value clock", []clockOp{
			{kind: opCharge, tag: TagTrap, n: 120},
			{kind: opChargeBytes, tag: TagMemAccess, n: 9},
			{kind: opCharge, tag: TagSandbox, n: 0},
			{kind: opSetCPU, cpu: 1},
			{kind: opCharge, tag: TagTrap, n: 100},
		}},
		{"EnsureCPUs reallocates after fast-path charges", []clockOp{
			{kind: opEnsureCPUs, cpu: 1},
			{kind: opCharge, tag: TagTrap, n: 100},
			{kind: opCharge, tag: TagEngine, n: 5},
			{kind: opEnsureCPUs, cpu: 4},
			{kind: opCharge, tag: TagTrap, n: 7},
			{kind: opSetCPU, cpu: 3},
			{kind: opCharge, tag: TagIO, n: 11},
			{kind: opSetCPU, cpu: 9},
			{kind: opCharge, tag: TagIO, n: 13},
		}},
		{"segments count from the epoch base", []clockOp{
			{kind: opEnsureCPUs, cpu: 2},
			{kind: opAttach},
			{kind: opCharge, tag: TagTrap, n: 120},
			{kind: opContext, cpu: 7, n: 3},
			{kind: opBeginPhase},
			{kind: opBeginSegment, cpu: 0},
			{kind: opCharge, tag: TagCompute, n: 40},
			{kind: opChargeBytes, tag: TagMemAccess, n: 64},
			{kind: opEndSegment},
			{kind: opBeginSegment, cpu: 1},
			{kind: opCharge, tag: TagCompute, n: 30},
			{kind: opCharge, tag: TagTLB, n: 60},
			{kind: opEndSegment},
			{kind: opEndPhase},
			{kind: opCharge, tag: TagTrap, n: 100},
		}},
		{"held events release in (Start, CPU) order", []clockOp{
			{kind: opAttach},
			{kind: opBeginPhase},
			{kind: opBeginSegment, cpu: 3},
			{kind: opCharge, tag: TagEngine, n: 10},
			{kind: opCharge, tag: TagTrap, n: 5},
			{kind: opEndSegment},
			{kind: opBeginSegment, cpu: 1},
			{kind: opCharge, tag: TagEngine, n: 10},
			{kind: opCharge, tag: TagTrap, n: 0},
			{kind: opCharge, tag: TagTrap, n: 7},
			{kind: opEndSegment},
			{kind: opEndPhase},
			{kind: opBeginPhase},
			{kind: opEndPhase},
		}},
		{"phase misuse panics", []clockOp{
			{kind: opBeginSegment, cpu: 0},
			{kind: opEndPhase},
			{kind: opBeginPhase},
			{kind: opBeginPhase},
			{kind: opAttach},
			{kind: opDetach},
			{kind: opBeginSegment, cpu: 1},
			{kind: opCharge, tag: TagCompute, n: 9},
			{kind: opEndPhase},
			{kind: opEndPhase},
			{kind: opEndSegment},
			{kind: opCharge, tag: TagTrap, n: 1},
		}},
		{"snapshot onto a fresh clock", []clockOp{
			{kind: opCharge, tag: TagCrypt, n: 9000},
			{kind: opSnapshot},
			{kind: opCharge, tag: TagTrap, n: 120},
			{kind: opSetCPU, cpu: 1},
			{kind: opCharge, tag: TagICSave, n: 420},
			{kind: opSnapshot, n: 2},
			{kind: opCharge, tag: TagTrap, n: 100},
			{kind: opSetCPU, cpu: 3},
			{kind: opCharge, tag: TagTrap, n: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runClockOps(t, tc.ops) })
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &clockModel{}
		ops := make([]clockOp, 0, 400)
		for len(ops) < cap(ops) {
			op := m.randomOp(rng)
			m.apply(op)
			ops = append(ops, op)
		}
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { runClockOps(t, ops) })
	}
}

// BenchmarkClockCharge times one charge on each path: untraced Charge
// takes the inlined fast path, traced Charge takes the slow path and
// records an event into a ring that wraps.
func BenchmarkClockCharge(b *testing.B) {
	newClock := func() *Clock {
		c := &Clock{}
		c.EnsureCPUs(2)
		c.SetCPU(1)
		return c
	}
	b.Run("Charge", func(b *testing.B) {
		c := newClock()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Charge(TagEngine, 3)
		}
	})
	b.Run("traced", func(b *testing.B) {
		c := newClock()
		c.AttachTracer(NewTracer(1 << 10))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Charge(TagEngine, 3)
		}
	})
}
