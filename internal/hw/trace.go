package hw

import (
	"fmt"
	"io"
	"sort"
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
// Recording is mutex-guarded so tracers are safe to share across the
// goroutines of a parallel experiment sweep.
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
	t.mu.Unlock()
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

// traceRing is one CPU's private, preallocated trace ring, written by
// that CPU's user segment during a sharded user phase and drained into
// the shared Tracer at the barrier. Like the main ring, it keeps the most recent events when
// full; overwrites are counted so merge accounting stays exact.
type traceRing struct {
	buf     []TraceEvent
	next    int
	wrapped bool
	dropped uint64
}

func (r *traceRing) init(capacity int) {
	r.buf = make([]TraceEvent, 0, capacity)
}

func (r *traceRing) record(ev TraceEvent) {
	if r.buf == nil {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next++
	r.dropped++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// drain returns the retained events oldest-first and resets the ring
// for the next phase (capacity is kept; nothing is reallocated).
func (r *traceRing) drain() []TraceEvent {
	if r.buf == nil || len(r.buf) == 0 {
		return nil
	}
	var out []TraceEvent
	if r.wrapped || r.next > 0 && len(r.buf) == cap(r.buf) {
		out = make([]TraceEvent, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = make([]TraceEvent, len(r.buf))
		copy(out, r.buf)
	}
	r.buf = r.buf[:0]
	r.next = 0
	r.wrapped = false
	return out
}

// mergeShardRings drains every shard's ring and replays the events into
// the main ring in timestamp order (stable; ties keep CPU-id order,
// because shards are drained in CPU-id order and the sort is stable).
// Runs at the epoch barrier, in serial context; the result is
// deterministic regardless of how the host interleaved the CPUs during
// the phase, because each ring's contents depend only on its own CPU's
// charges.
func (t *Tracer) mergeShardRings(shards []clockShard) {
	var all []TraceEvent
	var dropped uint64
	for i := range shards {
		r := &shards[i].ring
		dropped += r.dropped
		r.dropped = 0
		evs := r.drain()
		if len(evs) > 0 {
			all = append(all, evs...)
		}
	}
	if len(all) == 0 && dropped == 0 {
		return
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	t.mu.Lock()
	t.total += dropped // overwritten in a shard ring: recorded, not retained
	t.mu.Unlock()
	for _, ev := range all {
		t.record(ev)
	}
}
