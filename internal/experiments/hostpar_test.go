package experiments

import (
	"reflect"
	"sync"
	"testing"
)

// These tests pin the host-concurrency contract for multi-CPU systems:
// every system runs its epoch schedule on its own kernel, clock and
// devices, so running several of them at once on concurrent host
// goroutines must not change one virtual number. Run them under -race
// (CI does) and they double as the proof that no scheduler, kernel or
// device state is shared between systems, including state two systems
// reach through an alias, which vglint's globalwrite cannot see.

// concurrently runs body(0..n-1) on n host goroutines and waits for
// all of them.
func concurrently(n int, body func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			body(i)
		}()
	}
	wg.Wait()
}

// TestHostParallelScalingEquivalence runs the ghost-webserver scaling
// sweep at 2, 4 and 8 CPUs one system after another, then all three at
// once on concurrent host goroutines, and requires the fingerprints
// (cycle totals, machine and per-CPU ledgers, busy counters, kernel
// stats, IPI/shootdown counts) to be byte-identical.
func TestHostParallelScalingEquivalence(t *testing.T) {
	sc := QuickScale()
	counts := []int{2, 4, 8}
	serial := make([]CPUPoint, len(counts))
	for i, n := range counts {
		serial[i] = ghostServerThroughput(n, sc.HTTPRequests)
	}
	parallel := make([]CPUPoint, len(counts))
	concurrently(len(counts), func(i int) {
		parallel[i] = ghostServerThroughput(counts[i], sc.HTTPRequests)
	})
	for i, n := range counts {
		if serial[i].Fingerprint != parallel[i].Fingerprint {
			t.Errorf("%d CPUs: run beside other systems diverged from run alone:\n--- alone\n%s--- beside\n%s",
				n, serial[i].Fingerprint, parallel[i].Fingerprint)
		}
	}
}

// TestHostParallelNetStackEquivalence runs the 4-CPU event-server
// workload (poll sets, network timers, nonblocking sockets) alone and
// then as two systems on concurrent host goroutines, and requires all
// three fingerprints to be byte-identical.
func TestHostParallelNetStackEquivalence(t *testing.T) {
	serial, err := netStackFingerprint(t)
	if err != nil {
		t.Fatal(err)
	}
	parallel := make([]string, 2)
	errs := make([]error, len(parallel))
	concurrently(len(parallel), func(i int) {
		parallel[i], errs[i] = netStackFingerprint(t)
	})
	for i, fp := range parallel {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if fp != serial {
			t.Errorf("concurrent run %d diverged from the run alone:\n--- alone\n%s--- concurrent\n%s", i, serial, fp)
		}
	}
}

// TestHostParallelSecurityMatrix runs the full attack matrix, with the
// SMP vectors on 2-CPU machines, alone and then as two matrices on
// concurrent host goroutines, and requires row-for-row identical
// outcomes with every attack defended: attacks must see the same
// machine state however the host schedules the systems that run them.
func TestHostParallelSecurityMatrix(t *testing.T) {
	serial := SecurityMatrix()
	parallel := make([][]SecurityRow, 2)
	concurrently(len(parallel), func(i int) {
		parallel[i] = SecurityMatrix()
	})
	for i, rows := range parallel {
		if !reflect.DeepEqual(serial, rows) {
			t.Fatalf("security matrix %d diverged when run concurrently:\nalone:      %+v\nconcurrent: %+v", i, serial, rows)
		}
	}
	for _, r := range serial {
		if !r.Defended {
			t.Fatalf("attack %q not defended", r.Attack)
		}
	}
}
