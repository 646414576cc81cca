package experiments

import (
	"reflect"
	"testing"
)

// These tests pin the host-parallel determinism contract: running epoch
// user phases on concurrent host goroutines must not change ONE virtual
// number. Run them under -race (CI does) and they double as the data-
// race proof for the parallel user phase.

// TestHostParallelScalingEquivalence runs the ghost-webserver scaling
// sweep twice serially and twice host-parallel at each CPU count and
// requires all four fingerprints — cycle totals, machine and per-CPU
// ledgers, busy counters, kernel stats, IPI/shootdown counts — to be
// byte-identical.
func TestHostParallelScalingEquivalence(t *testing.T) {
	sc := QuickScale()
	for _, n := range []int{2, 4, 8} {
		s1 := ghostServerThroughput(n, sc.HTTPRequests, false)
		s2 := ghostServerThroughput(n, sc.HTTPRequests, false)
		p1 := ghostServerThroughput(n, sc.HTTPRequests, true)
		p2 := ghostServerThroughput(n, sc.HTTPRequests, true)
		if s1.Fingerprint != s2.Fingerprint {
			t.Fatalf("%d CPUs: serial run is not reproducible:\n--- run 1\n%s--- run 2\n%s", n, s1.Fingerprint, s2.Fingerprint)
		}
		if p1.Fingerprint != p2.Fingerprint {
			t.Fatalf("%d CPUs: host-parallel run is not reproducible:\n--- run 1\n%s--- run 2\n%s", n, p1.Fingerprint, p2.Fingerprint)
		}
		if s1.Fingerprint != p1.Fingerprint {
			t.Fatalf("%d CPUs: host-parallel diverged from serial:\n--- serial\n%s--- parallel\n%s", n, s1.Fingerprint, p1.Fingerprint)
		}
		if !p1.HostParallel || s1.HostParallel {
			t.Fatalf("%d CPUs: HostParallel flags wrong: serial=%v parallel=%v", n, s1.HostParallel, p1.HostParallel)
		}
	}
}

// TestHostParallelCompare exercises the public comparison entry point
// (vgbench's cpu experiment); its internal panic-on-divergence is the
// assertion.
func TestHostParallelCompare(t *testing.T) {
	pts := CPUScalingCompare(QuickScale(), []int{1, 2, 4})
	if len(pts) != 3 {
		t.Fatalf("got %d compare points, want 3", len(pts))
	}
	for _, c := range pts {
		if !c.Match() {
			t.Fatalf("%d CPUs: fingerprints diverged", c.Serial.NumCPUs)
		}
		if c.Serial.HostSec <= 0 || c.Parallel.HostSec <= 0 {
			t.Fatalf("%d CPUs: host timings not recorded: %v %v",
				c.Serial.NumCPUs, c.Serial.HostSec, c.Parallel.HostSec)
		}
	}
}

// TestHostParallelSecurityMatrix runs the full attack matrix with the
// SMP vectors' machines on host-parallel epoch user phases and requires
// row-for-row identical outcomes — attacks ride the same kernels and
// must see the same machine state regardless of host scheduling.
func TestHostParallelSecurityMatrix(t *testing.T) {
	serial := SecurityMatrix()
	parallel, err := securityMatrix(2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("security matrix diverged under host parallelism:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	for _, r := range serial {
		if !r.Defended {
			t.Fatalf("attack %q not defended", r.Attack)
		}
	}
}
