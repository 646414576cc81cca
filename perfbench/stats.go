package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mb = 1 << 20 // MB in every metric means 2^20 bytes

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spreads printed here match the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// --- host measurements -------------------------------------------------

// hostSample is a point on the process's own clocks and counters.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration // user + system, all threads
	allocs  uint64        // cumulative heap bytes allocated
	objects uint64        // cumulative heap objects allocated
	gcs     uint64        // completed GC cycles
	gcCPU   float64       // GC CPU seconds (estimate from runtime/metrics)
}

var hostMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(hostMetrics)
	return hostSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  hostMetrics[0].Value.Uint64(),
		objects: hostMetrics[1].Value.Uint64(),
		gcs:     hostMetrics[2].Value.Uint64(),
		gcCPU:   hostMetrics[3].Value.Float64(),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb * 1024 / mb, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
