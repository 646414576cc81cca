package kernel

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// tu is the tests' time unit in cycles. Delays and clock steps come in
// multiples of 64, 64² and 64³ units and reach past 64⁴ units (2^37
// cycles): the level boundaries and horizon of a four-level, 64-slot
// timer wheel ticking every tu cycles, the instants where a timer
// structure that buckets by time can misorder timers.
const tu = 8192

// fireLog arms a timer that appends its label when fired.
func fireLog(q *timerQueue, now, delay uint64, log *[]int, label int) *timer {
	return q.after(now, delay, func() { *log = append(*log, label) })
}

func TestTimerFiresInExpiryOrder(t *testing.T) {
	q := newTimerQueue()
	var log []int
	// Deliberately armed out of order, with delays of several
	// magnitudes.
	fireLog(q, 0, 5*tu, &log, 2)
	fireLog(q, 0, 1*tu, &log, 0)
	fireLog(q, 0, 100*tu, &log, 3)
	fireLog(q, 0, 10_000*tu, &log, 4)
	fireLog(q, 0, 2*tu, &log, 1)
	if got := q.pendingCount(); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	if n := q.advance(20_000 * tu); n != 5 {
		t.Fatalf("advance fired %d, want 5", n)
	}
	for i, v := range log {
		if v != i {
			t.Fatalf("fire order %v", log)
		}
	}
	if q.pendingCount() != 0 {
		t.Errorf("pending after drain = %d", q.pendingCount())
	}
}

func TestTimerSameExpiryBreaksTiesBySeq(t *testing.T) {
	q := newTimerQueue()
	var log []int
	for i := 0; i < 8; i++ {
		fireLog(q, 0, 3*tu, &log, i)
	}
	q.advance(4 * tu)
	for i, v := range log {
		if v != i {
			t.Fatalf("same-expiry order %v, want arm order", log)
		}
	}
}

func TestTimerIncrementalAdvance(t *testing.T) {
	q := newTimerQueue()
	var log []int
	fireLog(q, 0, 2*tu, &log, 1)
	fireLog(q, 0, 70*tu, &log, 2)
	if n := q.advance(tu); n != 0 {
		t.Fatalf("fired %d early", n)
	}
	if n := q.advance(3 * tu); n != 1 || len(log) != 1 || log[0] != 1 {
		t.Fatalf("first: n=%d log=%v", n, log)
	}
	if n := q.advance(69 * tu); n != 0 {
		t.Fatalf("second timer fired %d units early", n)
	}
	if n := q.advance(71 * tu); n != 1 || log[len(log)-1] != 2 {
		t.Fatalf("second timer: n=%d log=%v", n, log)
	}
}

func TestTimerCancel(t *testing.T) {
	q := newTimerQueue()
	var log []int
	tm := fireLog(q, 0, 2*tu, &log, 1)
	fireLog(q, 0, 2*tu, &log, 2)
	if !q.cancel(tm) {
		t.Fatal("cancel of live timer failed")
	}
	if q.cancel(tm) {
		t.Fatal("double cancel succeeded")
	}
	if q.cancel(nil) {
		t.Fatal("cancel of no timer succeeded")
	}
	if q.pendingCount() != 1 {
		t.Fatalf("pending = %d after cancel", q.pendingCount())
	}
	if n := q.advance(3 * tu); n != 1 || len(log) != 1 || log[0] != 2 {
		t.Fatalf("canceled timer fired: n=%d log=%v", n, log)
	}
}

// TestTimerFarExpiry: a timer past 2^37 cycles fires neither early nor
// late.
func TestTimerFarExpiry(t *testing.T) {
	q := newTimerQueue()
	var log []int
	far := uint64(64 * 64 * 64 * 64 * tu)
	fireLog(q, 0, far*2, &log, 1)
	if n := q.advance(far); n != 0 {
		t.Fatalf("far timer fired early")
	}
	if n := q.advance(far*2 + tu); n != 1 {
		t.Fatalf("far timer never fired")
	}
}

func TestTimerNextExpiry(t *testing.T) {
	q := newTimerQueue()
	if _, ok := q.nextExpiry(); ok {
		t.Fatal("empty queue reported an expiry")
	}
	var log []int
	fireLog(q, 0, 40*tu, &log, 1)
	tm := fireLog(q, 0, 4*tu, &log, 2)
	next, ok := q.nextExpiry()
	if !ok || next != 4*tu {
		t.Fatalf("nextExpiry = %d,%v", next, ok)
	}
	q.cancel(tm)
	next, ok = q.nextExpiry()
	if !ok || next != 40*tu {
		t.Fatalf("nextExpiry after cancel = %d,%v", next, ok)
	}
}

func TestTimerZeroDelayFiresNextAdvance(t *testing.T) {
	q := newTimerQueue()
	var log []int
	fireLog(q, 1000, 0, &log, 1)
	if n := q.advance(1000); n != 0 {
		t.Fatalf("zero-delay timer fired at its arm time")
	}
	if n := q.advance(1001); n != 1 {
		t.Fatalf("zero-delay timer: fired %d", n)
	}
}

// TestTimerNextExpiryMatchesScan drives the queue with random arms,
// cancels and advances (near and far delays, big jumps, handlers that
// re-arm) and checks after every operation that nextExpiry equals a
// scan of the live timers the test tracks itself, and that each
// advance fires exactly the due ones.
func TestTimerNextExpiryMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := uint64(rng.Intn(1 << 20))
		q := newTimerQueue()
		live := make(map[*timer]uint64)
		var timers []*timer
		delay := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return uint64(rng.Intn(tu))
			case 1:
				return uint64(rng.Int63n(1 << 40))
			case 2, 3:
				return uint64(rng.Intn(64 * 64 * tu))
			}
			return uint64(rng.Intn(64 * tu))
		}
		var arm func()
		arm = func() {
			d := delay()
			if d == 0 {
				d = 1
			}
			var tm *timer
			reArm := rng.Intn(4) == 0
			tm = q.after(now, d, func() {
				if _, ok := live[tm]; !ok {
					t.Fatalf("seed %d: timer %d fired but is not live", seed, tm.seq)
				}
				delete(live, tm)
				if reArm {
					arm()
				}
			})
			live[tm] = now + d
			timers = append(timers, tm)
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				arm()
			case r < 6 && len(timers) > 0:
				tm := timers[rng.Intn(len(timers))]
				_, want := live[tm]
				if got := q.cancel(tm); got != want {
					t.Fatalf("seed %d step %d: cancel(%d) = %v, want %v", seed, step, tm.seq, got, want)
				}
				delete(live, tm)
			default:
				// Mostly small steps; sometimes the idle path's skip
				// straight to the earliest expiry.
				now += uint64(rng.Intn(5 * tu))
				if next, ok := q.nextExpiry(); ok && next > now && next-now < 1<<30 && rng.Intn(8) == 0 {
					now = next + uint64(rng.Intn(tu))
				}
				due := 0
				for _, exp := range live {
					if exp <= now {
						due++
					}
				}
				before := len(live)
				fired := q.advance(now)
				// Handlers may re-arm; timers armed during the
				// advance fire on a later one.
				if fired != due || before-fired > len(live) {
					t.Fatalf("seed %d step %d: advance fired %d, %d were due", seed, step, fired, due)
				}
			}
			var min uint64
			found := false
			for _, exp := range live {
				if !found || exp < min {
					min, found = exp, true
				}
			}
			got, ok := q.nextExpiry()
			if ok != found || got != min {
				t.Fatalf("seed %d step %d: nextExpiry = %d,%v, scan = %d,%v", seed, step, got, ok, min, found)
			}
			if q.pendingCount() != len(live) {
				t.Fatalf("seed %d step %d: %d pending, %d live", seed, step, q.pendingCount(), len(live))
			}
		}
	}
}

// TestTimerMatchesModel drives the queue and a sorted list of armed
// timers with the same seeded operations — arms with delays from zero
// to past 2^37 cycles, cancels, advances in small steps and in jumps
// onto and across multiples of 64, 64² and 64³ units, and handlers that
// arm new timers (some already due) and cancel armed ones — and demands
// the exact fire sequence of the model, which fires every timer due at
// an advance in (expiry, seq) order. A handler's cancel of a timer due
// in the same advance reports false and the timer still fires; its
// cancel of a timer not yet due reports true and the timer never fires.
func TestTimerMatchesModel(t *testing.T) {
	type armed struct {
		t      *timer
		expiry uint64
	}
	horizon := uint64(64 * 64 * 64 * 64 * tu)
	var dueCancels, laterCancels int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := uint64(rng.Int63n(1 << 28))
		q := newTimerQueue()
		var model []armed // armed timers, in arm order
		var want []armed  // the advance running: its due timers, in fire order
		var timers []*timer
		var fired []uint64 // seqs, in fire order
		delay := func() uint64 {
			span := []uint64{1, tu, 64 * tu, 64 * 64 * tu,
				64 * 64 * 64 * tu, horizon, 8 * horizon}[rng.Intn(7)]
			if rng.Intn(6) == 0 {
				return 0
			}
			return uint64(rng.Int63n(int64(span))) + span/2
		}
		var arm func(base uint64)
		arm = func(base uint64) {
			d := delay()
			var tm *timer
			reArm := rng.Intn(4) == 0
			tm = q.after(base, d, func() {
				fired = append(fired, tm.seq)
				if reArm {
					// The handler arms from the advance's time or
					// earlier, so its timer may already be due: it fires
					// on the next advance, as the model expects.
					arm(now - min(now, uint64(rng.Intn(3*tu))))
				}
				switch rng.Intn(8) {
				case 0:
					// A timer of this same advance, fired or not yet:
					// no longer armed, so cancel reports false, and the
					// fire check below demands it fired all the same.
					a := want[rng.Intn(len(want))]
					if q.cancel(a.t) {
						t.Fatalf("seed %d: cancel of timer %d, due in the running advance, reported true", seed, a.t.seq)
					}
					dueCancels++
				case 1:
					if len(model) == 0 {
						break
					}
					i := rng.Intn(len(model))
					if !q.cancel(model[i].t) {
						t.Fatalf("seed %d: cancel of armed timer %d reported false", seed, model[i].t.seq)
					}
					model = slices.Delete(model, i, i+1)
					laterCancels++
				}
			})
			model = append(model, armed{tm, base + max(d, 1)})
			timers = append(timers, tm)
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				arm(now)
			case r < 5 && len(timers) > 0:
				tm := timers[rng.Intn(len(timers))]
				i := slices.IndexFunc(model, func(a armed) bool { return a.t == tm })
				if got := q.cancel(tm); got != (i >= 0) {
					t.Fatalf("seed %d step %d: cancel(%d) = %v, model has it: %v", seed, step, tm.seq, got, i >= 0)
				}
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
			default:
				unit := now / tu
				switch r := rng.Intn(20); {
				case r < 7: // within the unit or a few units on
					now += uint64(rng.Intn(4 * tu))
				case r < 12: // up to 64 units
					now += uint64(rng.Intn(64 * tu))
				case r < 19: // onto, or one unit either side of, a multiple of 64^k
					width := []uint64{64, 64 * 64, 64 * 64 * 64}[rng.Intn(3)]
					unit = (unit/width+1)*width + uint64(rng.Intn(3)) - 1
					now = max(now, unit*tu+uint64(rng.Intn(tu)))
				default: // far: up to past 2^38 cycles
					now += uint64(rng.Int63n(int64(2 * horizon)))
				}
				want = want[:0]
				model = slices.DeleteFunc(model, func(a armed) bool {
					if a.expiry <= now {
						want = append(want, a)
						return true
					}
					return false
				})
				slices.SortFunc(want, func(a, b armed) int {
					if c := cmp.Compare(a.expiry, b.expiry); c != 0 {
						return c
					}
					return cmp.Compare(a.t.seq, b.t.seq)
				})
				fired = fired[:0]
				if n := q.advance(now); n != len(want) || len(fired) != len(want) {
					t.Fatalf("seed %d step %d: advance(%d) fired %d (%d handlers ran), model %d", seed, step, now, n, len(fired), len(want))
				}
				for i, a := range want {
					if fired[i] != a.t.seq {
						t.Fatalf("seed %d step %d: fire %d is timer %d, model %d (expiry %d)", seed, step, i, fired[i], a.t.seq, a.expiry)
					}
				}
			}
			if q.pendingCount() != len(model) {
				t.Fatalf("seed %d step %d: %d pending, model %d", seed, step, q.pendingCount(), len(model))
			}
			next, ok := q.nextExpiry()
			if ok != (len(model) > 0) {
				t.Fatalf("seed %d step %d: nextExpiry ok=%v with %d armed", seed, step, ok, len(model))
			}
			for _, a := range model {
				if a.expiry < next {
					t.Fatalf("seed %d step %d: nextExpiry %d, timer %d expires at %d", seed, step, next, a.t.seq, a.expiry)
				}
			}
		}
	}
	if dueCancels == 0 || laterCancels == 0 {
		t.Fatalf("handlers cancelled %d timers due in their own advance and %d not yet due; both must occur", dueCancels, laterCancels)
	}
}
