package hw

// Tag classifies a virtual-cycle charge by the mechanism that incurred
// it. Every Clock.Charge call names a tag, so the machine accumulates a
// per-tag ledger alongside the total cycle counter — this is what lets
// the Table 2/3/4 overheads be decomposed the way the paper's §8
// discussion decomposes them ("the cost of saving the Interrupt
// Context", "the MMU checks", "the bit-masking instrumentation")
// instead of reported as opaque totals.
//
// The tag set is deliberately small and mechanism-shaped, not
// module-shaped: a charge is tagged by *why* the cycles were spent
// (sandbox mask, CFI check, trap hardware, page crypto), regardless of
// which package spent them. The per-tag sums are exactly a partition of
// the total: Ledger.Total() == Clock.Cycles() at every instant (see
// TestLedgerSumsToTotal).
type Tag uint8

const (
	// TagMemAccess is plain data movement: loads, stores, and the
	// per-word cost of block copies — the work every configuration pays.
	TagMemAccess Tag = iota
	// TagSandbox is the Virtual Ghost load/store instrumentation: the
	// compare+or bit-masking sequences guarding memory accesses
	// (CostMaskCheck), per access or per memcpy operand.
	TagSandbox
	// TagCFI is control-flow-integrity work: label checks on returns
	// and indirect calls, and label landing pads.
	TagCFI
	// TagEngine is instruction-execution base cost: ALU ops, branches,
	// and calls in IR code and along modeled kernel paths. Present in
	// every configuration; the instrumentation tags measure what Virtual
	// Ghost adds on top of it.
	TagEngine
	// TagVerify is the static admission checker's linear scan over
	// translated IR (module-load time, never hot paths).
	TagVerify
	// TagTrap is the hardware trap sequence: mode switch and IST stack
	// switch on entry, iret on exit.
	TagTrap
	// TagICSave is the SVA VM's Interrupt Context work: copying trap
	// state into VM internal memory, zeroing registers, and the
	// icontext save/load/newstate operations (Virtual Ghost only).
	TagICSave
	// TagMMUCheck is the SVA VM's validation of page-table updates
	// against the ghost/code/VM-memory constraints (Virtual Ghost only).
	TagMMUCheck
	// TagTLB is address-translation hardware: TLB hits, page-table
	// walks, and TLB flushes.
	TagTLB
	// TagCrypt is cryptography: page encryption/hash for ghost swap and
	// the shadowing baseline, binary validation hashes, and the ghosting
	// libc's per-byte AES-GCM work.
	TagCrypt
	// TagSched is kernel context-switch work (register save/restore,
	// runqueue manipulation, excluding TLB effects).
	TagSched
	// TagIPI is inter-processor-interrupt traffic: APIC programming,
	// remote delivery, and TLB-shootdown rounds.
	TagIPI
	// TagIO is device access: disk transfers, NIC serialization,
	// loopback, DMA, and I/O port operations.
	TagIO
	// TagShadow is the hypervisor-baseline boundary: VM exits,
	// paravirtual MMU hypercalls, shadow-fault repair, and shadow
	// address-space construction (Shadow configuration only).
	TagShadow
	// TagCompute is pure user computation declared by applications
	// through Proc.Compute.
	TagCompute
	// TagOther is the unattributed bucket: charges made through the
	// legacy Clock.Advance/AdvanceBytes entry points (tests simulating
	// the passage of time). Production charge paths never use it —
	// vglint's rawadvance analyzer (enforced by TestLintClean) keeps raw
	// Advance calls out of non-test code.
	TagOther
	// TagNet is network-path work split out of TagIO: NIC serialization
	// and latency, loopback delivery, and idle-time skips while every
	// runnable process waits on a network timer. Appended after TagOther
	// so ledgers serialized before the split decode with their original
	// tag meanings intact.
	TagNet

	// NumTags sizes per-tag arrays.
	NumTags
)

var tagNames = [NumTags]string{
	"mem-access", "sandbox", "cfi", "engine", "verify", "trap",
	"ic-save", "mmu-check", "tlb", "crypt", "sched", "ipi", "io",
	"shadow", "compute", "other", "net",
}

// String returns the tag's stable snake-ish name, used in trace export,
// JSON breakdowns, and table output.
func (t Tag) String() string {
	if t < NumTags {
		return tagNames[t]
	}
	return "tag?"
}

// ParseTag resolves a tag name as printed by String. The second return
// is false for unknown names.
func ParseTag(s string) (Tag, bool) {
	for i, n := range tagNames {
		if n == s {
			return Tag(i), true
		}
	}
	return 0, false
}

// Ledger is a per-tag cycle account. The zero value is an empty ledger.
type Ledger [NumTags]uint64

// Total sums the ledger. On a clock's live ledger this equals
// Clock.Cycles() exactly — the accounting refactor that introduced tags
// preserves the untagged totals bit-for-bit.
func (l *Ledger) Total() uint64 {
	var sum uint64
	for _, v := range l {
		sum += v
	}
	return sum
}

// Sub returns the per-tag delta l - prev (the charges between two
// snapshots of the same clock).
func (l Ledger) Sub(prev Ledger) Ledger {
	var d Ledger
	for i := range l {
		d[i] = l[i] - prev[i]
	}
	return d
}

// Add returns the per-tag sum of two ledgers.
func (l Ledger) Add(o Ledger) Ledger {
	var s Ledger
	for i := range l {
		s[i] = l[i] + o[i]
	}
	return s
}

// TopShares returns the tags with non-zero cycles, ordered by
// descending share of the ledger total, as (tag, fraction) pairs.
// Useful for "34% ic-save, 22% sandbox"-style breakdown lines.
func (l Ledger) TopShares() []TagShare {
	total := l.Total()
	if total == 0 {
		return nil
	}
	out := make([]TagShare, 0, NumTags)
	for t := Tag(0); t < NumTags; t++ {
		if l[t] > 0 {
			out = append(out, TagShare{Tag: t, Cycles: l[t],
				Share: float64(l[t]) / float64(total)})
		}
	}
	// Insertion sort by descending cycles: NumTags is tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Cycles > out[j-1].Cycles; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TagShare is one tag's slice of a ledger.
type TagShare struct {
	Tag    Tag
	Cycles uint64
	Share  float64 // fraction of the ledger total, 0..1
}
