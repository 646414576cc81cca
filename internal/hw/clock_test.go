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
// per-CPU shards of an open phase, and the trace events the attached
// tracer should hold.
type clockModel struct {
	cycles   uint64
	ledger   Ledger
	perCPU   []Ledger
	cpu      int
	pid      int32
	ctx      uint32
	traced   bool
	events   []TraceEvent
	sharding bool
	phaseN   int    // CPUs the open shard phase was begun with
	base     uint64 // cycles when the open shard phase began
	shards   []modelShard
}

type modelShard struct {
	cycles uint64
	ledger Ledger
	pid    int32
	ctx    uint32
	events []TraceEvent
}

type clockOpKind int

const (
	opCharge clockOpKind = iota
	opChargeOn
	opChargeBytes
	opSetCPU
	opEnsureCPUs
	opAttach
	opDetach
	opContext
	opBegin
	opShardContext
	opEnd
	opSnapshot
)

// clockOp is one call on a Clock. cpu is the CPU argument (the CPU
// count for EnsureCPUs and BeginShardPhase, the pid for SetContext);
// n is the cycle count (the byte count for ChargeBytes, the context
// word for SetContext and SetShardContext, the extra CPUs of the fresh
// clock a snapshot is applied to).
type clockOp struct {
	kind clockOpKind
	cpu  int
	tag  Tag
	n    uint64
}

func (op clockOp) String() string {
	names := [...]string{"Charge", "ChargeOn", "ChargeBytes", "SetCPU", "EnsureCPUs",
		"AttachTracer", "AttachTracer(nil)", "SetContext", "BeginShardPhase",
		"SetShardContext", "EndShardPhase", "snapshot"}
	return fmt.Sprintf("%s(cpu=%d, tag=%v, n=%d)", names[op.kind], op.cpu, op.tag, op.n)
}

// chargeBytesCost is the per-8-byte cost the ChargeBytes ops use.
const chargeBytesCost = 3

// apply runs op on *c and reports whether it panicked. A snapshot
// replaces *c with a fresh clock restored from the old one's image.
func (op clockOp) apply(c **Clock) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	clk := *c
	switch op.kind {
	case opCharge:
		clk.Charge(op.tag, op.n)
	case opChargeOn:
		clk.ChargeOn(op.cpu, op.tag, op.n)
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
	case opBegin:
		clk.BeginShardPhase(op.cpu)
	case opShardContext:
		clk.SetShardContext(op.cpu, int32(op.cpu+100), uint32(op.n))
	case opEnd:
		clk.EndShardPhase()
	case opSnapshot:
		img := clk.captureSnap()
		fresh := &Clock{}
		if op.n > 0 {
			fresh.EnsureCPUs(len(img.PerCPU) + int(op.n))
		}
		fresh.applySnap(&img)
		*c = fresh
	}
	return false
}

func (m *clockModel) ensure(n int) {
	for len(m.perCPU) < n {
		m.perCPU = append(m.perCPU, Ledger{})
	}
}

func (m *clockModel) growShards(n int) {
	for len(m.shards) < n {
		m.shards = append(m.shards, modelShard{})
	}
}

func (m *clockModel) charge(tag Tag, n uint64) {
	if m.traced && n > 0 {
		m.events = append(m.events, TraceEvent{Tag: tag, CPU: int32(m.cpu), PID: m.pid, Ctx: m.ctx, Start: m.cycles, Dur: n})
	}
	m.cycles += n
	m.ledger[tag] += n
	if m.perCPU != nil {
		m.perCPU[m.cpu][tag] += n
	}
}

// apply runs op on the model and reports whether the clock must panic.
func (m *clockModel) apply(op clockOp) (wantPanic bool) {
	switch op.kind {
	case opCharge, opChargeBytes:
		if m.sharding {
			return true
		}
		n := op.n
		if op.kind == opChargeBytes {
			n = (op.n + 7) / 8 * chargeBytesCost
		}
		m.charge(op.tag, n)
	case opChargeOn:
		if !m.sharding {
			m.charge(op.tag, op.n)
			return false
		}
		s := &m.shards[op.cpu]
		if m.traced && op.n > 0 {
			s.events = append(s.events, TraceEvent{Tag: op.tag, CPU: int32(op.cpu), PID: s.pid, Ctx: s.ctx, Start: m.base + s.cycles, Dur: op.n})
		}
		s.cycles += op.n
		s.ledger[op.tag] += op.n
	case opSetCPU:
		m.ensure(op.cpu + 1)
		m.cpu = op.cpu
	case opEnsureCPUs:
		m.ensure(op.cpu)
	case opAttach:
		m.traced, m.events = true, nil
	case opDetach:
		m.traced, m.events = false, nil
	case opContext:
		m.pid, m.ctx = int32(op.cpu), uint32(op.n)
	case opBegin:
		if m.sharding {
			return true
		}
		m.ensure(op.cpu)
		m.growShards(op.cpu)
		for i := 0; i < op.cpu; i++ {
			m.shards[i].cycles, m.shards[i].ledger = 0, Ledger{}
		}
		m.sharding, m.phaseN, m.base = true, op.cpu, m.cycles
	case opShardContext:
		m.growShards(op.cpu + 1)
		m.shards[op.cpu].pid, m.shards[op.cpu].ctx = int32(op.cpu+100), uint32(op.n)
	case opEnd:
		if !m.sharding {
			return true
		}
		m.sharding = false
		var merged []TraceEvent
		for i := 0; i < m.phaseN; i++ {
			s := &m.shards[i]
			m.cycles += s.cycles
			for t, v := range s.ledger {
				m.ledger[t] += v
				m.perCPU[i][t] += v
			}
			merged = append(merged, s.events...)
			s.events = nil
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].Start < merged[j].Start })
		if m.traced {
			m.events = append(m.events, merged...)
		}
	case opSnapshot:
		// The image carries cycles, the ledgers and the selected CPU; a
		// fresh clock has no tracer, no trace context and no shards.
		if op.n > 0 {
			m.ensure(len(m.perCPU) + int(op.n))
		}
		m.ensure(m.cpu + 1)
		m.traced, m.events = false, nil
		m.pid, m.ctx = 0, 0
		m.shards = nil
	}
	return false
}

// randomOp draws an operation that is legal in the model's state, or
// one that must panic (a global charge or a second BeginShardPhase in a
// shard phase, EndShardPhase outside one). Shard phases open on every
// CPU the clock has, as the epoch scheduler opens them.
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
	if m.sharding {
		switch {
		case r < 60:
			return clockOp{kind: opChargeOn, cpu: rng.Intn(m.phaseN), tag: tag, n: n}
		case r < 66:
			return clockOp{kind: opCharge, tag: tag, n: n}
		case r < 69:
			return clockOp{kind: opChargeBytes, tag: tag, n: n}
		case r < 76:
			return clockOp{kind: opShardContext, cpu: rng.Intn(m.phaseN), n: n}
		case r < 79:
			return clockOp{kind: opSetCPU, cpu: rng.Intn(cpus)}
		case r < 81:
			return clockOp{kind: opBegin, cpu: cpus}
		case r < 83:
			return clockOp{kind: opContext, cpu: rng.Intn(8), n: n}
		default:
			return clockOp{kind: opEnd}
		}
	}
	switch {
	case r < 30:
		return clockOp{kind: opCharge, tag: tag, n: n}
	case r < 45:
		return clockOp{kind: opChargeOn, cpu: rng.Intn(cpus), tag: tag, n: n}
	case r < 55:
		return clockOp{kind: opChargeBytes, tag: tag, n: n}
	case r < 65:
		return clockOp{kind: opSetCPU, cpu: rng.Intn(cpus + 2)}
	case r < 70:
		return clockOp{kind: opEnsureCPUs, cpu: cpus + rng.Intn(3)}
	case r < 75:
		return clockOp{kind: opAttach}
	case r < 79:
		return clockOp{kind: opDetach}
	case r < 83:
		return clockOp{kind: opContext, cpu: rng.Intn(8), n: n}
	case r < 91:
		return clockOp{kind: opBegin, cpu: cpus}
	case r < 93:
		return clockOp{kind: opShardContext, cpu: rng.Intn(cpus), n: n}
	case r < 94:
		return clockOp{kind: opEnd}
	default:
		return clockOp{kind: opSnapshot, n: uint64(rng.Intn(3))}
	}
}

// checkClock compares every reading of c with the model: the
// machine-wide ledger, the total, each CPU's ledger (one index past
// each end included), the open shards, and the tracer's events.
func checkClock(t *testing.T, step int, op clockOp, c *Clock, m *clockModel) {
	t.Helper()
	l := c.Ledger()
	if l != m.ledger {
		t.Fatalf("step %d %v: Ledger() = %v, model %v", step, op, l, m.ledger)
	}
	if c.Cycles() != m.cycles || l.Total() != c.Cycles() {
		t.Fatalf("step %d %v: Cycles() = %d, Ledger().Total() = %d, model %d", step, op, c.Cycles(), l.Total(), m.cycles)
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
	if c.Sharding() != m.sharding {
		t.Fatalf("step %d %v: Sharding() = %v, model %v", step, op, c.Sharding(), m.sharding)
	}
	if m.sharding {
		for i := -1; i <= len(m.shards); i++ {
			var want uint64
			if i >= 0 && i < m.phaseN {
				want = m.shards[i].cycles
			}
			if got := c.ShardCycles(i); got != want {
				t.Fatalf("step %d %v: ShardCycles(%d) = %d, model %d", step, op, i, got, want)
			}
		}
	}
	if c.TracerAttached() != m.traced {
		t.Fatalf("step %d %v: TracerAttached() = %v, model %v", step, op, c.TracerAttached(), m.traced)
	}
	if m.traced {
		if got := c.tracer.Events(); !slices.Equal(got, m.events) {
			t.Fatalf("step %d %v: tracer holds %d events, model %d\n got %v\nwant %v", step, op, len(got), len(m.events), got, m.events)
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
		want := m.apply(op)
		if got := op.apply(&c); got != want {
			t.Fatalf("step %d %v: panicked %v, want %v", step, op, got, want)
		}
		checkClock(t, step, op, c, m)
	}
}

// TestClockMatchesModel drives the charge paths (the inlined fast path
// and every slow-path case: a zero-value clock, an attached tracer, an
// open shard phase) against clockModel, with per-CPU ledgers grown,
// tracers attached and detached, shard phases opened and merged, and
// the clock round-tripped through a snapshot image onto a fresh one.
func TestClockMatchesModel(t *testing.T) {
	cases := []struct {
		name string
		ops  []clockOp
	}{
		{"zero-value clock", []clockOp{
			{kind: opCharge, tag: TagTrap, n: 120},
			{kind: opChargeOn, cpu: 1, tag: TagTLB, n: 60},
			{kind: opChargeBytes, tag: TagMemAccess, n: 9},
			{kind: opCharge, tag: TagSandbox, n: 0},
			{kind: opSetCPU, cpu: 1},
			{kind: opCharge, tag: TagTrap, n: 100},
		}},
		{"EnsureCPUs reallocates after fast-path charges", []clockOp{
			{kind: opEnsureCPUs, cpu: 1},
			{kind: opCharge, tag: TagTrap, n: 100},
			{kind: opChargeOn, cpu: 0, tag: TagEngine, n: 5},
			{kind: opEnsureCPUs, cpu: 4},
			{kind: opCharge, tag: TagTrap, n: 7},
			{kind: opSetCPU, cpu: 3},
			{kind: opCharge, tag: TagIO, n: 11},
			{kind: opSetCPU, cpu: 9},
			{kind: opChargeOn, cpu: 9, tag: TagIO, n: 13},
		}},
		{"Charge panics inside a shard phase", []clockOp{
			{kind: opEnsureCPUs, cpu: 2},
			{kind: opAttach},
			{kind: opCharge, tag: TagTrap, n: 120},
			{kind: opShardContext, cpu: 1, n: 3},
			{kind: opBegin, cpu: 2},
			{kind: opChargeOn, cpu: 1, tag: TagEngine, n: 40},
			{kind: opCharge, tag: TagTrap, n: 120},
			{kind: opChargeBytes, tag: TagMemAccess, n: 64},
			{kind: opChargeOn, cpu: 0, tag: TagEngine, n: 30},
			{kind: opBegin, cpu: 2},
			{kind: opEnd},
			{kind: opEnd},
			{kind: opDetach},
			{kind: opCharge, tag: TagTrap, n: 100},
		}},
		{"narrower phase after a wider one", []clockOp{
			{kind: opAttach},
			{kind: opBegin, cpu: 4},
			{kind: opChargeOn, cpu: 3, tag: TagEngine, n: 10},
			{kind: opChargeOn, cpu: 1, tag: TagTrap, n: 5},
			{kind: opEnd},
			{kind: opBegin, cpu: 2},
			{kind: opEnd},
			{kind: opBegin, cpu: 2},
			{kind: opChargeOn, cpu: 1, tag: TagTrap, n: 7},
			{kind: opEnd},
			{kind: opBegin, cpu: 4},
			{kind: opEnd},
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
// and ChargeOn take the inlined fast path, traced Charge takes the
// slow path and records an event into a ring that wraps.
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
	b.Run("ChargeOn", func(b *testing.B) {
		c := newClock()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ChargeOn(1, TagEngine, 3)
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
