package kernel

import "container/heap"

// This file holds the timers behind every network timeout (DESIGN.md
// §19): poll-wait timeouts, per-connection idle auto-close, and connect
// timeouts. They run on the virtual clock — the same deterministic
// clock every other cost runs on — so arming and firing replay exactly.
//
// The queue is a binary min-heap of the armed timers, ordered by
// (expiry, seq), where seq is a monotonic arm sequence number. Due
// timers therefore fire in expiry order, and timers armed for the same
// instant fire in arm order. Arm and cancel cost O(log n); an advance
// with nothing due costs one comparison.

// timer is one armed timeout. index is its position in the queue's
// heap, or -1 once it has fired or been cancelled.
type timer struct {
	expiry uint64 // absolute virtual time
	seq    uint64
	fn     func()
	index  int
}

// timerQueue holds the armed timers. It implements heap.Interface for
// container/heap; the rest of the kernel uses after, cancel, advance,
// nextExpiry and pendingCount.
type timerQueue struct {
	timers []*timer
	// nextSeq is the seq the next armed timer gets, starting at 1.
	// Snapshots carry it (NetSnap.TimerSeq), so a restored run breaks
	// ties exactly as a straight run does.
	nextSeq uint64
}

func newTimerQueue() *timerQueue { return &timerQueue{nextSeq: 1} }

func (q *timerQueue) Len() int { return len(q.timers) }

func (q *timerQueue) Less(i, j int) bool {
	a, b := q.timers[i], q.timers[j]
	if a.expiry != b.expiry {
		return a.expiry < b.expiry
	}
	return a.seq < b.seq
}

func (q *timerQueue) Swap(i, j int) {
	q.timers[i], q.timers[j] = q.timers[j], q.timers[i]
	q.timers[i].index = i
	q.timers[j].index = j
}

func (q *timerQueue) Push(x any) {
	t := x.(*timer)
	t.index = len(q.timers)
	q.timers = append(q.timers, t)
}

func (q *timerQueue) Pop() any {
	n := len(q.timers) - 1
	t := q.timers[n]
	q.timers[n] = nil
	q.timers = q.timers[:n]
	t.index = -1
	return t
}

// after arms fn to fire once virtual time reaches now+delay and returns
// the timer for cancel. A zero delay still fires strictly in the future
// (the next advance past now).
func (q *timerQueue) after(now, delay uint64, fn func()) *timer {
	t := &timer{expiry: now + max(delay, 1), seq: q.nextSeq, fn: fn}
	q.nextSeq++
	heap.Push(q, t)
	return t
}

// cancel disarms t. It reports whether t was still armed: false for a
// nil, fired or cancelled timer, and for one due in the advance whose
// handler cancels it (that timer still fires).
func (q *timerQueue) cancel(t *timer) bool {
	if t == nil || t.index < 0 {
		return false
	}
	heap.Remove(q, t.index)
	return true
}

// advance fires every armed timer with expiry <= now, in (expiry, seq)
// order, and returns how many fired. It takes all of them off the queue
// before running any handler, so a timer a handler arms fires on a
// later advance, even when it is already due.
func (q *timerQueue) advance(now uint64) int {
	var due []*timer
	for len(q.timers) > 0 && q.timers[0].expiry <= now {
		due = append(due, heap.Pop(q).(*timer))
	}
	for _, t := range due {
		t.fn()
	}
	return len(due)
}

// nextExpiry returns the earliest armed expiry and whether one exists.
func (q *timerQueue) nextExpiry() (uint64, bool) {
	if len(q.timers) == 0 {
		return 0, false
	}
	return q.timers[0].expiry, true
}

// pendingCount reports how many timers are armed. While advance runs
// handlers, the due timers that have not fired yet are already off the
// queue and not counted.
func (q *timerQueue) pendingCount() int { return len(q.timers) }
