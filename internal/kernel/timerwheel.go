package kernel

import (
	"math/bits"
	"sort"
)

// This file is the hierarchical timer wheel driving every network
// timeout (DESIGN.md §19): poll-wait timeouts, per-connection idle
// auto-close, and connect timeouts. It is indexed by virtual time —
// the same deterministic clock every other cost runs on — so arming,
// cascading, and firing are all replayable.
//
// Layout: wheelLevels levels of wheelSlots slots each. A level-0 slot
// covers one tick of wheelGranularity cycles; each higher level covers
// wheelSlots times the span of the one below. Entries beyond the top
// level's horizon wait in a sorted overflow list and fire straight
// from there. Advancing the wheel moves the cursor tick by tick,
// cascading a higher-level slot down whenever the cursor crosses its
// boundary — the classic O(1)-amortized scheme — except that it jumps
// over ticks where that step would do nothing: one occupancy word per
// level marks the non-empty slots, so the cursor goes straight to the
// next occupied level-0 slot or the next multiple of wheelSlots ticks,
// whichever comes first.
//
// Determinism: due entries fire in (expiry, id) order, where id is a
// monotonic arm sequence number. Two timers armed for the same instant
// therefore fire in arm order, never map order or slot-chain order.

const (
	// wheelGranularity is the level-0 tick in cycles (~2.4 µs at
	// 3.4 GHz) — finer than any modeled network latency, so timeout
	// rounding is invisible next to the NIC's 8000-cycle latency.
	wheelGranularity = 8192
	wheelSlots       = 64
	wheelLevels      = 4
)

// timerID names one armed timer; 0 is never a valid id.
type timerID uint64

type wheelEntry struct {
	id     timerID
	expiry uint64 // absolute virtual time
	fn     func()
}

type timerWheel struct {
	// curTick is the absolute level-0 tick the wheel has advanced to:
	// every live entry with expiry < curTick*wheelGranularity has
	// fired.
	curTick uint64
	slots   [wheelLevels][wheelSlots][]wheelEntry
	// occ has bit i of occ[lvl] set iff slots[lvl][i] is non-empty
	// (live or lazily dead entries).
	occ [wheelLevels]uint64
	// overflow holds entries beyond the top level's horizon, sorted by
	// (expiry, id); advance pops due entries straight off its head.
	overflow []wheelEntry
	// live maps each armed-not-yet-fired id to its expiry; dead marks
	// cancelled ids whose entries are reaped lazily when their slot is
	// processed.
	live    map[timerID]uint64
	dead    map[timerID]struct{}
	pending int
	// minExp caches the earliest live expiry while minValid. after
	// lowers it; cancelling the entry at the minimum, or any firing,
	// invalidates it, and the next nextExpiry rescans live.
	minExp   uint64
	minValid bool
	nextID   timerID
}

func newTimerWheel(now uint64) *timerWheel {
	return &timerWheel{
		curTick: now / wheelGranularity,
		live:    make(map[timerID]uint64),
		dead:    make(map[timerID]struct{}),
		nextID:  1,
	}
}

// after arms fn to fire once virtual time reaches now+delay and
// returns the timer's id for cancel. A zero delay still fires strictly
// in the future (the next advance past now).
func (w *timerWheel) after(now, delay uint64, fn func()) timerID {
	if delay == 0 {
		delay = 1
	}
	id := w.nextID
	w.nextID++
	exp := now + delay
	w.live[id] = exp
	if w.minValid && exp < w.minExp {
		w.minExp = exp
	}
	w.insert(wheelEntry{id: id, expiry: exp, fn: fn})
	w.pending++
	return id
}

// cancel disarms a timer. It reports whether the id was still armed
// (false for already-fired, already-cancelled, or invalid ids).
func (w *timerWheel) cancel(id timerID) bool {
	exp, ok := w.live[id]
	if !ok {
		return false
	}
	if exp == w.minExp {
		w.minValid = false
	}
	delete(w.live, id)
	w.dead[id] = struct{}{}
	w.pending--
	return true
}

// insert places an entry into the level whose span covers its delay.
// Entries due at or before the cursor land in the current slot and
// fire on the next advance.
func (w *timerWheel) insert(e wheelEntry) {
	tick := e.expiry / wheelGranularity
	if tick < w.curTick {
		tick = w.curTick
	}
	delta := tick - w.curTick
	span := uint64(wheelSlots) // total ticks covered by levels 0..lvl
	width := uint64(1)         // ticks per slot at lvl
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if delta < span {
			idx := (tick / width) % wheelSlots
			w.slots[lvl][idx] = append(w.slots[lvl][idx], e)
			w.occ[lvl] |= 1 << idx
			return
		}
		width = span
		span *= wheelSlots
	}
	// Beyond the horizon (≈137 G cycles): sorted overflow.
	i := sort.Search(len(w.overflow), func(i int) bool {
		o := w.overflow[i]
		return o.expiry > e.expiry || (o.expiry == e.expiry && o.id > e.id)
	})
	w.overflow = append(w.overflow, wheelEntry{})
	copy(w.overflow[i+1:], w.overflow[i:])
	w.overflow[i] = e
}

// advance fires every live entry with expiry <= now, in (expiry, id)
// order, and returns how many fired. Handlers may arm new timers; a
// handler-armed timer already due fires on the next advance, not this
// one.
func (w *timerWheel) advance(now uint64) int {
	targetTick := now / wheelGranularity
	if w.pending == 0 {
		// Nothing armed: just keep the cursor current so later inserts
		// land in the right slot. (Lazily-dead entries can linger in
		// slots; they are reaped whenever their slot is next touched.)
		w.curTick = targetTick
		return 0
	}
	var due []wheelEntry
	collect := func(e wheelEntry) bool {
		// Reap cancelled entries; move due live ones to the fire list.
		if _, gone := w.dead[e.id]; gone {
			delete(w.dead, e.id)
			return true
		}
		if e.expiry <= now {
			delete(w.live, e.id)
			due = append(due, e)
			return true
		}
		return false
	}
	// filterCur sweeps the cursor's own slot: entries there can be due
	// within the current tick (zero-delay arms land here).
	filterCur := func() {
		idx := w.curTick % wheelSlots
		slot := &w.slots[0][idx]
		if len(*slot) == 0 {
			return
		}
		keep := (*slot)[:0]
		for _, e := range *slot {
			if !collect(e) {
				keep = append(keep, e)
			}
		}
		*slot = keep
		if len(keep) == 0 {
			w.occ[0] &^= 1 << idx
		}
	}
	filterCur()
	for w.curTick < targetTick {
		if w.occ == [wheelLevels]uint64{} {
			// Everything armed lives in the overflow list: no slot can
			// fire or cascade, so the cursor jumps straight to the
			// target.
			w.curTick = targetTick
			break
		}
		w.curTick = w.nextStop(targetTick)
		w.cascade()
		idx := w.curTick % wheelSlots
		slot := &w.slots[0][idx]
		if len(*slot) == 0 {
			continue
		}
		entries := *slot
		*slot = nil
		w.occ[0] &^= 1 << idx
		for _, e := range entries {
			if !collect(e) {
				// Not yet due (a handler re-armed into the in-progress
				// region): keep it for a later advance.
				w.insert(e)
			}
		}
	}
	// The target tick's slot may hold entries due within the tick.
	filterCur()
	// Overflow entries that came due (huge jumps).
	for len(w.overflow) > 0 && w.overflow[0].expiry <= now {
		e := w.overflow[0]
		w.overflow = w.overflow[1:]
		collect(e)
	}
	if len(due) == 0 {
		return 0
	}
	w.minValid = false
	sort.Slice(due, func(i, j int) bool {
		if due[i].expiry != due[j].expiry {
			return due[i].expiry < due[j].expiry
		}
		return due[i].id < due[j].id
	})
	for _, e := range due {
		w.pending--
		e.fn()
	}
	return len(due)
}

// nextStop returns the first tick after the cursor, and at most
// target, at which a step of the cursor can do anything: the next tick
// whose level-0 slot is occupied, or the next multiple of wheelSlots,
// where cascade may pull entries down. Tick t steps onto slot
// t%wheelSlots, so the slots after the cursor's index are, in order,
// the ticks up to that boundary. Every tick skipped has an empty
// level-0 slot and is no boundary: stepping onto it changes nothing.
func (w *timerWheel) nextStop(target uint64) uint64 {
	cur := w.curTick % wheelSlots
	next := w.curTick - cur + wheelSlots
	if later := w.occ[0] &^ (uint64(2)<<cur - 1); later != 0 {
		next = w.curTick - cur + uint64(bits.TrailingZeros64(later))
	}
	return min(next, target)
}

// cascade pulls the next higher-level slot down whenever the cursor
// crosses that level's boundary, re-distributing its entries into the
// finer levels below.
func (w *timerWheel) cascade() {
	width := uint64(wheelSlots) // ticks per slot at the level being pulled
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if w.curTick%width != 0 {
			return
		}
		idx := (w.curTick / width) % wheelSlots
		entries := w.slots[lvl][idx]
		if len(entries) != 0 {
			w.slots[lvl][idx] = nil
			w.occ[lvl] &^= 1 << idx
			for _, e := range entries {
				if _, gone := w.dead[e.id]; gone {
					delete(w.dead, e.id)
					continue
				}
				w.insert(e)
			}
		}
		width *= wheelSlots
	}
}

// nextExpiry returns the earliest live expiry and whether one exists.
// It answers from the cached minimum; only after the cache was
// invalidated does it rescan the live entries, so an idle pass over
// thousands of armed timers costs O(1) until one is cancelled at the
// minimum or fires.
func (w *timerWheel) nextExpiry() (uint64, bool) {
	if len(w.live) == 0 {
		return 0, false
	}
	if !w.minValid {
		first := true
		for _, exp := range w.live {
			if first || exp < w.minExp {
				w.minExp, first = exp, false
			}
		}
		w.minValid = true
	}
	return w.minExp, true
}

// pendingCount reports how many timers are armed and not cancelled.
func (w *timerWheel) pendingCount() int { return w.pending }
