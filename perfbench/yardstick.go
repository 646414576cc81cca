package main

import (
	"math"
	"sort"
	"time"
)

// The yardstick measures how fast the machine is while a run measures
// the program, so that host times can be put on one scale.
//
// On a shared host the speed a process gets changes by up to twice for
// seconds or minutes at a time, in CPU time as much as in wall time,
// most likely because another tenant on the sibling hyperthread shares
// the core's caches or the clock moves with the load on the socket.
// Between two runs of the same work, raw times spread far wider than any
// bound a later change could be judged by.
//
// The yardstick is a fixed piece of work that depends on nothing in the
// repository: probes and updates of an open-addressing table of 512 KiB
// of integers, a size the core's own cache holds. It slows down with
// the clock and with a busy sibling, as the simulator's engine and
// kernel tables do. The workloads call tick between units of their
// timed work (a kmodule step, an lmbench operation, a postmark run, a
// turn of the c10k generator's event loop). Every yardInterval, tick
// runs a slice: one pass over the table to bring it back into the
// cache, then a timed pass. A timed phase's scaled time is the sum over
// its units of each unit's wall time, less any slice inside it, times
// (yardNominal / p)^yardExponent, where p is the median timed pass near
// that unit: the time the unit would have taken on a machine on which
// the pass takes yardNominal.
//
// The exponent is there because the simulator slows down more than the
// pass does. On a shared 2-CPU virtual machine, the logarithm of a
// round's time moved 1.05 to 1.45 times as much as the logarithm of the
// pass beside it within runs, and up to twice as much between a quiet
// and a busy stretch of minutes. Over ten sets of ten runs across the
// four workloads, 1.5 kept the widest spread of host_s lowest: 0.09
// (IQR/median), against 0.21 with 1, 0.15 with 1.25 and 0.11 with 1.75.
//
// A slice allocates nothing and writes no pointers, so the collector
// neither runs during it nor costs it more when the program's heap
// grows, and the table holds no pointers for the collector to scan.
// The program's own cache footprint does not reach the timed pass,
// because the first pass refills the table before it.

const (
	yardInterval = 5 * time.Millisecond
	yardNominal  = 100 * time.Microsecond
	yardExponent = 1.5
	yardTable    = 1 << 16 // slots of 8 bytes
	yardProbes   = 8000    // probes per pass
	// yardNear is how many slices around a unit give its speed.
	yardNear = 5
)

type yardSlice struct {
	at, end time.Duration // since yardEpoch
	pass    time.Duration // the timed pass
}

var yardEpoch = time.Now()

// yardstick owns the table, the slice log and the unit boundaries of
// the current timed phase. A switched-off yardstick's tick does
// nothing.
type yardstick struct {
	table  []uint64
	h      uint64
	off    bool
	slices []yardSlice
	marks  []time.Duration // unit boundaries of the current timed phase
}

func newYardstick() *yardstick {
	y := &yardstick{
		table:  make([]uint64, yardTable),
		h:      0x5eed,
		slices: make([]yardSlice, 0, 1<<14),
		marks:  make([]time.Duration, 0, 1<<12),
	}
	r := newRNG(0x5eed)
	for i := range y.table {
		y.table[i] = r.next()
	}
	return y
}

func (y *yardstick) pass() {
	h := y.h
	for i := 0; i < yardProbes; i++ {
		h = (h ^ h>>29) * 0xbf58476d1ce4e5b9
		s := h & (yardTable - 1)
		for j := 0; j < 4 && y.table[s]&1 == 1; j++ {
			s = (s + 1) & (yardTable - 1)
		}
		y.table[s] ^= h
	}
	y.h = h
}

// slice runs one slice now and logs it.
func (y *yardstick) slice() {
	at := time.Since(yardEpoch)
	y.pass()
	t := time.Since(yardEpoch)
	y.pass()
	end := time.Since(yardEpoch)
	if len(y.slices) == cap(y.slices) {
		// Keep the newer half rather than grow inside a timed phase.
		y.slices = y.slices[:copy(y.slices, y.slices[len(y.slices)/2:])]
	}
	y.slices = append(y.slices, yardSlice{at: at, end: end, pass: end - t})
}

// tick marks a unit boundary and runs a slice if yardInterval has
// passed since the last one ended.
func (y *yardstick) tick() {
	if y.off {
		return
	}
	now := time.Since(yardEpoch)
	y.marks = append(y.marks, now)
	if n := len(y.slices); n == 0 || now-y.slices[n-1].end >= yardInterval {
		y.slice()
	}
}

// begin starts a timed phase with a slice of its own, so the first unit
// has a speed measured next to it.
func (y *yardstick) begin() {
	y.marks = y.marks[:0]
	y.slice()
	y.marks = append(y.marks, time.Since(yardEpoch))
}

// end closes the timed phase and returns its wall time less the slices
// inside it (raw) and that time on the yardstick's scale (scaled), in
// seconds. Its closing slice, for the last unit's speed, lies outside
// the phase.
func (y *yardstick) end() (raw, scaled float64) {
	y.marks = append(y.marks, time.Since(yardEpoch))
	y.slice()
	return scaleUnits(y.marks, y.slices)
}

// scaleUnits adds up the units between consecutive marks. Each unit's
// time leaves out the slices that began inside it and is scaled by
// the speed factor of the median pass of the yardNear slices that began
// nearest its middle. slices are in time order.
func scaleUnits(marks []time.Duration, slices []yardSlice) (raw, scaled float64) {
	var near [yardNear]float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		d := b - a
		k := sort.Search(len(slices), func(j int) bool { return slices[j].at >= a })
		for j := k; j < len(slices) && slices[j].at < b; j++ {
			d -= slices[j].end - slices[j].at
		}
		d = max(d, 0)
		mid := a + (b-a)/2
		lo := sort.Search(len(slices), func(j int) bool { return slices[j].at >= mid })
		hi, n := lo, 0
		for ; n < yardNear && (lo > 0 || hi < len(slices)); n++ {
			if hi == len(slices) || (lo > 0 && mid-slices[lo-1].at <= slices[hi].at-mid) {
				lo--
				near[n] = slices[lo].pass.Seconds()
			} else {
				near[n] = slices[hi].pass.Seconds()
				hi++
			}
		}
		raw += d.Seconds()
		if n == 0 {
			scaled += d.Seconds()
		} else {
			scaled += d.Seconds() * speedFactor(median(near[:n]))
		}
	}
	return raw, scaled
}

// speedFactor puts a time measured where the timed pass took pass
// seconds on the yardstick's scale.
func speedFactor(pass float64) float64 {
	return math.Pow(yardNominal.Seconds()/pass, yardExponent)
}

// scale is the speed factor of the median pass of n fresh slices: it
// puts a time measured right after them on the yardstick's scale.
func (y *yardstick) scale(n int) float64 {
	passes := make([]float64, n)
	for i := range passes {
		y.slice()
		passes[i] = y.slices[len(y.slices)-1].pass.Seconds()
	}
	return speedFactor(median(passes))
}
