package hw

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
)

// TraceEvent is one tagged cycle charge: which mechanism (Tag), where
// (CPU), on whose behalf (PID and a context word — by convention the
// in-flight syscall number), and when (Start virtual cycle, Dur cycles).
type TraceEvent struct {
	Tag   Tag
	CPU   int32
	PID   int32
	Ctx   uint32
	Start uint64 // virtual cycle at which the charge began
	Dur   uint64 // charge size in virtual cycles
}

// Tracer is a bounded ring buffer of TraceEvents fed by Clock.Charge.
// The buffer is allocated once at construction; recording never
// allocates, and when the buffer is full the oldest events are
// overwritten (the tail of a run is usually the interesting part).
// Events charged inside a user phase wait in a second slice, which
// grows to the largest phase and is reused, until the phase ends.
// Recording is mutex-guarded, so a tracer is safe to share across
// goroutines.
//
// Tracing costs zero *virtual* cycles by construction — the tracer
// observes charges, it never makes them. Attaching one moves every
// charge off Clock's inlined fast path; with none attached, the charge
// path is the fast flag test and two adds, and allocates nothing
// (TestEngineTracingDisabledZeroAlloc).
type Tracer struct {
	mu    sync.Mutex
	ring  []TraceEvent
	next  int    // ring index of the next write
	total uint64 // events ever recorded, including overwritten ones
	// held keeps the open user phase's events until release records
	// them; its backing array is reused from phase to phase.
	held []TraceEvent
}

// DefaultTraceCapacity is the ring size used by vgrun -trace.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer whose ring holds the most recent capacity
// events. Capacity must be positive.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]TraceEvent, 0, capacity)}
}

func (t *Tracer) record(ev TraceEvent) {
	t.mu.Lock()
	t.put(ev)
	t.mu.Unlock()
}

// put writes ev into the ring; the caller holds mu.
func (t *Tracer) put(ev TraceEvent) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
	}
	t.total++
}

// Total returns the number of events ever recorded, including any that
// have been overwritten in the ring.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten because the ring
// filled.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.ring))
}

// Events returns the retained events in recording order (oldest first).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// WriteChromeTrace serializes the retained events in the Chrome
// trace_event JSON format (load in chrome://tracing or Perfetto). Each
// charge becomes a complete ("ph":"X") event: name = tag, pid = the
// simulated process, tid = the simulated CPU, ts/dur in virtual
// microseconds at the nominal Frequency; exact cycle values and the
// syscall context ride in args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(w,
			"{\"name\":%q,\"ph\":\"X\",\"ts\":%.4f,\"dur\":%.4f,\"pid\":%d,\"tid\":%d,"+
				"\"args\":{\"cycles\":%d,\"start_cycle\":%d,\"ctx\":%d}}%s\n",
			ev.Tag.String(), Micros(ev.Start), Micros(ev.Dur), ev.PID, ev.CPU,
			ev.Dur, ev.Start, ev.Ctx, sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// hold keeps ev back until release. It is an event charged inside a
// user phase, where every segment is timed from the epoch base, so the
// phase's events arrive out of start order.
func (t *Tracer) hold(ev TraceEvent) {
	t.mu.Lock()
	t.held = append(t.held, ev)
	t.mu.Unlock()
}

// release records the held events in (Start, CPU) order; events of one
// CPU keep their charge order. Runs at the end of the user phase, in
// serial context, so the trace reads in virtual time order and depends
// only on the charges, never on the order the segments ran in.
func (t *Tracer) release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	slices.SortStableFunc(t.held, func(a, b TraceEvent) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.CPU, b.CPU))
	})
	for _, ev := range t.held {
		t.put(ev)
	}
	t.held = t.held[:0]
}
