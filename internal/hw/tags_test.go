package hw

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestLedgerSumsToTotal is the accounting invariant: every cycle the
// clock advances lands in exactly one ledger bucket, so the ledger
// total equals the cycle counter at every instant — tags partition the
// total, they never change it.
func TestLedgerSumsToTotal(t *testing.T) {
	var c Clock
	charges := []struct {
		tag Tag
		n   uint64
	}{
		{TagMemAccess, 4}, {TagSandbox, 14}, {TagTrap, 120},
		{TagICSave, 420}, {TagCrypt, 9000}, {TagMemAccess, 0},
		{TagOther, 3}, {TagCFI, 9},
	}
	for _, ch := range charges {
		c.Charge(ch.tag, ch.n)
		l := c.Ledger()
		if got := l.Total(); got != c.Cycles() {
			t.Fatalf("after Charge(%v, %d): ledger total %d != cycles %d",
				ch.tag, ch.n, got, c.Cycles())
		}
	}
	l := c.Ledger()
	if l[TagMemAccess] != 4 || l[TagSandbox] != 14 || l[TagICSave] != 420 {
		t.Errorf("per-tag buckets wrong: %v", l)
	}
}

// TestPerCPULedgersPartitionTotal checks that with per-CPU accounting
// enabled, the per-CPU ledgers also sum exactly to the global total.
func TestPerCPULedgersPartitionTotal(t *testing.T) {
	var c Clock
	c.EnsureCPUs(3)
	c.SetCPU(0)
	c.Charge(TagTrap, 100)
	c.SetCPU(2)
	c.Charge(TagSandbox, 50)
	c.Charge(TagTrap, 7)
	c.SetCPU(1)
	c.Charge(TagIO, 1)
	var sum uint64
	for cpu := 0; cpu < 3; cpu++ {
		l := c.CPULedger(cpu)
		sum += l.Total()
	}
	if sum != c.Cycles() {
		t.Fatalf("per-CPU ledgers sum to %d, clock at %d", sum, c.Cycles())
	}
	if l := c.CPULedger(2); l[TagSandbox] != 50 || l[TagTrap] != 7 {
		t.Errorf("cpu2 ledger wrong: %v", l)
	}
}

// TestAdvanceBytesRounding pins the words-not-bytes rule of
// ChargeBytes: it charges per started 8-byte word, so 1..8 bytes cost
// one word and 9 bytes cost two, identically under every tag. The
// boundary cases are the ones a per-byte rewrite would silently change.
func TestAdvanceBytesRounding(t *testing.T) {
	const costPer8 = 4
	cases := []struct {
		bytes int
		want  uint64
	}{
		{0, 0},
		{1, 1 * costPer8},
		{7, 1 * costPer8},
		{8, 1 * costPer8},
		{9, 2 * costPer8},
	}
	for _, tc := range cases {
		for _, tag := range []Tag{TagOther, TagMemAccess} {
			var c Clock
			c.ChargeBytes(tag, tc.bytes, costPer8)
			if got := c.Cycles(); got != tc.want {
				t.Errorf("ChargeBytes(%v, %d, %d) advanced %d cycles, want %d",
					tag, tc.bytes, costPer8, got, tc.want)
			}
			if l := c.Ledger(); l[tag] != tc.want {
				t.Errorf("ChargeBytes(%v, %d) booked %d under its tag, want %d",
					tag, tc.bytes, l[tag], tc.want)
			}
		}
	}
}

func TestParseTagRoundTrip(t *testing.T) {
	for tag := Tag(0); tag < NumTags; tag++ {
		got, ok := ParseTag(tag.String())
		if !ok || got != tag {
			t.Errorf("ParseTag(%q) = %v, %v; want %v", tag.String(), got, ok, tag)
		}
	}
	if _, ok := ParseTag("no-such-tag"); ok {
		t.Error("ParseTag accepted an unknown name")
	}
}

// TestTracerRing checks the bounded ring: the newest capacity events
// are kept in order, older ones are counted as dropped.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	var c Clock
	c.AttachTracer(tr)
	for i := 0; i < 7; i++ {
		c.Charge(TagTrap, uint64(i+1))
	}
	if got := tr.Total(); got != 7 {
		t.Fatalf("Total() = %d, want 7", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(i + 4); ev.Dur != want {
			t.Errorf("event %d: dur %d, want %d (oldest-first order)", i, ev.Dur, want)
		}
	}
}

// TestZeroDurChargesNotTraced checks that zero-cycle charges produce no
// trace events (they would be invisible slices and pure overhead).
func TestZeroDurChargesNotTraced(t *testing.T) {
	tr := NewTracer(4)
	var c Clock
	c.AttachTracer(tr)
	c.Charge(TagSandbox, 0)
	if tr.Total() != 0 {
		t.Errorf("zero-cycle charge was traced")
	}
}

// chromeTrace mirrors the subset of the Chrome trace_event format the
// exporter emits; the validation here is what the CI trace smoke step
// relies on.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string   `json:"name"`
		Ph   string   `json:"ph"`
		Ts   *float64 `json:"ts"`
		Dur  *float64 `json:"dur"`
		Pid  *int     `json:"pid"`
		Tid  *int     `json:"tid"`
		Args struct {
			Cycles     *uint64 `json:"cycles"`
			StartCycle *uint64 `json:"start_cycle"`
			Ctx        *uint32 `json:"ctx"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// validateChromeTrace decodes raw as trace_event JSON and fails the
// test on any shape violation.
func validateChromeTrace(t *testing.T, raw []byte) {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want \"ns\"", tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for i, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %d: ph = %q, want \"X\" (complete event)", i, ev.Ph)
		}
		if _, ok := ParseTag(ev.Name); !ok {
			t.Fatalf("event %d: name %q is not a cost tag", i, ev.Name)
		}
		if ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d: missing ts/dur/pid/tid", i)
		}
		if ev.Args.Cycles == nil || ev.Args.StartCycle == nil || ev.Args.Ctx == nil {
			t.Fatalf("event %d: missing args.cycles/start_cycle/ctx", i)
		}
		if *ev.Dur <= 0 {
			t.Fatalf("event %d: non-positive dur %v", i, *ev.Dur)
		}
	}
}

// TestWriteChromeTraceShape exports a synthetic trace and validates the
// trace_event shape end to end.
func TestWriteChromeTraceShape(t *testing.T) {
	tr := NewTracer(16)
	var c Clock
	c.EnsureCPUs(2)
	c.AttachTracer(tr)
	c.SetContext(42, 7)
	c.Charge(TagTrap, CostTrapEntry)
	c.SetCPU(1)
	c.Charge(TagSandbox, CostMaskCheck)
	c.ChargeBytes(TagMemAccess, 33, CostBcopyPerByte)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	validateChromeTrace(t, buf.Bytes())
}

// TestChromeTraceFile validates a CI-produced trace file (the smoke
// step runs `vgrun -trace <file>` and points VG_TRACE_FILE at it).
// Skipped when the environment variable is unset.
func TestChromeTraceFile(t *testing.T) {
	path := os.Getenv("VG_TRACE_FILE")
	if path == "" {
		t.Skip("VG_TRACE_FILE not set (CI trace smoke step only)")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	validateChromeTrace(t, raw)
}
