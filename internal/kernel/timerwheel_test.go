package kernel

import (
	"math/rand"
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
