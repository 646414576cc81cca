package kernel

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// fireLog arms a wheel entry that appends its label when fired.
func fireLog(w *timerWheel, now, delay uint64, log *[]int, label int) timerID {
	return w.after(now, delay, func() { *log = append(*log, label) })
}

func TestWheelFiresInExpiryOrder(t *testing.T) {
	w := newTimerWheel(0)
	var log []int
	// Deliberately armed out of order, spanning several levels.
	fireLog(w, 0, 5*wheelGranularity, &log, 2)
	fireLog(w, 0, 1*wheelGranularity, &log, 0)
	fireLog(w, 0, 100*wheelGranularity, &log, 3)    // level 1
	fireLog(w, 0, 10_000*wheelGranularity, &log, 4) // level 2
	fireLog(w, 0, 2*wheelGranularity, &log, 1)
	if got := w.pendingCount(); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	if n := w.advance(20_000 * wheelGranularity); n != 5 {
		t.Fatalf("advance fired %d, want 5", n)
	}
	for i, v := range log {
		if v != i {
			t.Fatalf("fire order %v", log)
		}
	}
	if w.pendingCount() != 0 {
		t.Errorf("pending after drain = %d", w.pendingCount())
	}
}

func TestWheelSameExpiryBreaksTiesByID(t *testing.T) {
	w := newTimerWheel(0)
	var log []int
	for i := 0; i < 8; i++ {
		fireLog(w, 0, 3*wheelGranularity, &log, i)
	}
	w.advance(4 * wheelGranularity)
	for i, v := range log {
		if v != i {
			t.Fatalf("same-expiry order %v, want arm order", log)
		}
	}
}

func TestWheelIncrementalAdvance(t *testing.T) {
	w := newTimerWheel(0)
	var log []int
	fireLog(w, 0, 2*wheelGranularity, &log, 1)
	fireLog(w, 0, 70*wheelGranularity, &log, 2) // next level up
	if n := w.advance(wheelGranularity); n != 0 {
		t.Fatalf("fired %d early", n)
	}
	if n := w.advance(3 * wheelGranularity); n != 1 || len(log) != 1 || log[0] != 1 {
		t.Fatalf("first: n=%d log=%v", n, log)
	}
	// Cascade: the level-1 entry must land in its exact level-0 slot.
	if n := w.advance(69 * wheelGranularity); n != 0 {
		t.Fatalf("level-1 entry fired %d ticks early", n)
	}
	if n := w.advance(71 * wheelGranularity); n != 1 || log[len(log)-1] != 2 {
		t.Fatalf("cascaded entry: n=%d log=%v", n, log)
	}
}

func TestWheelCancel(t *testing.T) {
	w := newTimerWheel(0)
	var log []int
	id := fireLog(w, 0, 2*wheelGranularity, &log, 1)
	fireLog(w, 0, 2*wheelGranularity, &log, 2)
	if !w.cancel(id) {
		t.Fatal("cancel of live timer failed")
	}
	if w.cancel(id) {
		t.Fatal("double cancel succeeded")
	}
	if w.pendingCount() != 1 {
		t.Fatalf("pending = %d after cancel", w.pendingCount())
	}
	if n := w.advance(3 * wheelGranularity); n != 1 || len(log) != 1 || log[0] != 2 {
		t.Fatalf("canceled timer fired: n=%d log=%v", n, log)
	}
}

func TestWheelOverflowBeyondTopLevel(t *testing.T) {
	w := newTimerWheel(0)
	var log []int
	// Beyond the wheel's total span: parked in the sorted overflow list.
	horizon := uint64(wheelSlots) * uint64(wheelSlots) * uint64(wheelSlots) * uint64(wheelSlots) * wheelGranularity
	fireLog(w, 0, horizon*2, &log, 1)
	if n := w.advance(horizon); n != 0 {
		t.Fatalf("overflow entry fired early")
	}
	if n := w.advance(horizon*2 + wheelGranularity); n != 1 {
		t.Fatalf("overflow entry never fired")
	}
}

func TestWheelNextExpiry(t *testing.T) {
	w := newTimerWheel(0)
	if _, ok := w.nextExpiry(); ok {
		t.Fatal("empty wheel reported an expiry")
	}
	var log []int
	fireLog(w, 0, 40*wheelGranularity, &log, 1)
	id := fireLog(w, 0, 4*wheelGranularity, &log, 2)
	next, ok := w.nextExpiry()
	if !ok || next != 4*wheelGranularity {
		t.Fatalf("nextExpiry = %d,%v", next, ok)
	}
	w.cancel(id)
	next, ok = w.nextExpiry()
	if !ok || next != 40*wheelGranularity {
		t.Fatalf("nextExpiry after cancel = %d,%v", next, ok)
	}
}

func TestWheelZeroDelayFiresNextAdvance(t *testing.T) {
	w := newTimerWheel(1000)
	var log []int
	fireLog(w, 1000, 0, &log, 1)
	if n := w.advance(1000 + wheelGranularity); n != 1 {
		t.Fatalf("zero-delay timer: fired %d", n)
	}
}

// TestWheelNextExpiryMatchesScan drives the wheel with random arms,
// cancels and advances (near and far delays, overflow entries, big
// jumps, handlers that re-arm) and checks after every operation that
// the cached nextExpiry equals a scan of the live entries the test
// tracks itself, and that each advance fires exactly the due ones.
func TestWheelNextExpiryMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := uint64(rng.Intn(1 << 20))
		w := newTimerWheel(now)
		live := make(map[timerID]uint64)
		var ids []timerID
		delay := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return uint64(rng.Intn(wheelGranularity))
			case 1:
				return uint64(rng.Int63n(1 << 40)) // past the top level: overflow
			case 2, 3:
				return uint64(rng.Intn(64 * 64 * wheelGranularity))
			}
			return uint64(rng.Intn(64 * wheelGranularity))
		}
		var arm func()
		arm = func() {
			d := delay()
			if d == 0 {
				d = 1
			}
			var id timerID
			reArm := rng.Intn(4) == 0
			id = w.after(now, d, func() {
				if _, ok := live[id]; !ok {
					t.Fatalf("seed %d: timer %d fired but is not live", seed, id)
				}
				delete(live, id)
				if reArm {
					arm()
				}
			})
			live[id] = now + d
			ids = append(ids, id)
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				arm()
			case r < 6 && len(ids) > 0:
				id := ids[rng.Intn(len(ids))]
				_, want := live[id]
				if got := w.cancel(id); got != want {
					t.Fatalf("seed %d step %d: cancel(%d) = %v, want %v", seed, step, id, got, want)
				}
				delete(live, id)
			default:
				// Mostly small steps; sometimes the idle path's skip
				// straight to the earliest expiry.
				now += uint64(rng.Intn(5 * wheelGranularity))
				if next, ok := w.nextExpiry(); ok && next > now && next-now < 1<<30 && rng.Intn(8) == 0 {
					now = next + uint64(rng.Intn(wheelGranularity))
				}
				due := 0
				for _, exp := range live {
					if exp <= now {
						due++
					}
				}
				before := len(live)
				fired := w.advance(now)
				// Handlers may re-arm; entries armed during the
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
			got, ok := w.nextExpiry()
			if ok != found || got != min {
				t.Fatalf("seed %d step %d: nextExpiry = %d,%v, scan = %d,%v", seed, step, got, ok, min, found)
			}
			if w.pendingCount() != len(live) {
				t.Fatalf("seed %d step %d: %d pending, %d live", seed, step, w.pendingCount(), len(live))
			}
		}
	}
}

// checkOccupancy verifies the wheel's occupancy words: bit i of
// occ[lvl] is set exactly when slots[lvl][i] holds an entry.
func checkOccupancy(t *testing.T, step int, w *timerWheel) {
	t.Helper()
	for lvl := range w.slots {
		for i, slot := range w.slots[lvl] {
			if set := w.occ[lvl]&(1<<i) != 0; set != (len(slot) > 0) {
				t.Fatalf("step %d: level %d slot %d: occupancy bit %v with %d entries", step, lvl, i, set, len(slot))
			}
		}
	}
}

// TestWheelMatchesModel drives the wheel and a sorted list of armed
// timers with the same seeded operations — arms with delays from zero
// to past the top level's horizon, cancels, advances in small steps and
// in jumps onto and across level boundaries, and handlers that arm new
// timers, some already due — and demands the exact fire sequence of the
// model, which fires every timer due at an advance in (expiry, id)
// order. After every operation the occupancy words must mark exactly the
// non-empty slots.
func TestWheelMatchesModel(t *testing.T) {
	type armed struct {
		id     timerID
		expiry uint64
	}
	horizon := uint64(wheelSlots * wheelSlots * wheelSlots * wheelSlots * wheelGranularity)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := uint64(rng.Int63n(1 << 28))
		w := newTimerWheel(now)
		var model []armed // live timers, in arm order
		var ids []timerID
		var fired []timerID
		delay := func() uint64 {
			span := []uint64{1, wheelGranularity, 64 * wheelGranularity, 64 * 64 * wheelGranularity,
				64 * 64 * 64 * wheelGranularity, horizon, 8 * horizon}[rng.Intn(7)]
			if rng.Intn(6) == 0 {
				return 0
			}
			return uint64(rng.Int63n(int64(span))) + span/2
		}
		var arm func(base uint64)
		arm = func(base uint64) {
			d := delay()
			var id timerID
			reArm := rng.Intn(4) == 0
			id = w.after(base, d, func() {
				fired = append(fired, id)
				if reArm {
					// The handler arms from the advance's time or
					// earlier, so its timer may already be due: it fires
					// on the next advance, as the model expects.
					arm(now - min(now, uint64(rng.Intn(3*wheelGranularity))))
				}
			})
			model = append(model, armed{id, base + max(d, 1)})
			ids = append(ids, id)
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				arm(now)
			case r < 5 && len(ids) > 0:
				id := ids[rng.Intn(len(ids))]
				i := slices.IndexFunc(model, func(a armed) bool { return a.id == id })
				if got := w.cancel(id); got != (i >= 0) {
					t.Fatalf("seed %d step %d: cancel(%d) = %v, model has it: %v", seed, step, id, got, i >= 0)
				}
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
			default:
				tick := now / wheelGranularity
				switch r := rng.Intn(20); {
				case r < 7: // within the tick or a few ticks on
					now += uint64(rng.Intn(4 * wheelGranularity))
				case r < 12: // up to a level-0 revolution
					now += uint64(rng.Intn(64 * wheelGranularity))
				case r < 19: // onto, or one tick either side of, a boundary
					width := []uint64{64, 64 * 64, 64 * 64 * 64}[rng.Intn(3)]
					tick = (tick/width+1)*width + uint64(rng.Intn(3)) - 1
					now = max(now, tick*wheelGranularity+uint64(rng.Intn(wheelGranularity)))
				default: // far: up to past the horizon
					now += uint64(rng.Int63n(int64(2 * horizon)))
				}
				var want []armed
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
					return cmp.Compare(a.id, b.id)
				})
				fired = fired[:0]
				if n := w.advance(now); n != len(want) {
					t.Fatalf("seed %d step %d: advance(%d) fired %d, model %d", seed, step, now, n, len(want))
				}
				for i, a := range want {
					if fired[i] != a.id {
						t.Fatalf("seed %d step %d: fire %d is timer %d, model %d (expiry %d)", seed, step, i, fired[i], a.id, a.expiry)
					}
				}
			}
			checkOccupancy(t, step, w)
			if w.pendingCount() != len(model) {
				t.Fatalf("seed %d step %d: %d pending, model %d", seed, step, w.pendingCount(), len(model))
			}
			next, ok := w.nextExpiry()
			if ok != (len(model) > 0) {
				t.Fatalf("seed %d step %d: nextExpiry ok=%v with %d armed", seed, step, ok, len(model))
			}
			for _, a := range model {
				if a.expiry < next {
					t.Fatalf("seed %d step %d: nextExpiry %d, timer %d expires at %d", seed, step, next, a.id, a.expiry)
				}
			}
		}
	}
}
