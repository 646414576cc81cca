package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/vir"
)

func sysOpts(cpus int, hostpar bool) repro.Options {
	return repro.Options{
		Machine:      hw.MachineConfig{NumCPUs: cpus},
		HostParallel: hostpar,
	}
}

func newSys(t testing.TB, mode core.Mode, cpus int, hostpar bool) *repro.System {
	t.Helper()
	sys, err := repro.NewSystemWithOptions(mode, sysOpts(cpus, hostpar))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runPhase runs one deterministic workload slice: ghost allocations,
// file I/O through the buffer cache, fork/wait children, syscalls,
// trusted randomness, and console output. Each tag perturbs the state
// differently so distinct phase histories produce distinct images.
func runPhase(t testing.TB, sys *repro.System, tag int) {
	t.Helper()
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	_, err := sys.Kernel.Spawn(fmt.Sprintf("phase%d", tag), func(p *kernel.Proc) {
		l, err := libc.NewGhosting(p)
		if err != nil {
			fail(err)
			return
		}
		msg := []byte(fmt.Sprintf("ghost-secret-%d", tag))
		g, err := l.Malloc(256)
		if err != nil {
			fail(err)
			return
		}
		l.WriteGhost(g, msg)

		path := fmt.Sprintf("/wk%d", tag)
		fd, err := l.Open(path, kernel.OCreat|kernel.ORdWr)
		if err != nil {
			fail(fmt.Errorf("open %s: %w", path, err))
			return
		}
		if _, err := l.Write(fd, g, len(msg)); err != nil {
			fail(err)
			return
		}
		l.Close(fd)

		fd, err = l.Open(path, kernel.ORdWr)
		if err != nil {
			fail(err)
			return
		}
		buf, err := l.Malloc(256)
		if err != nil {
			fail(err)
			return
		}
		n, err := l.Read(fd, buf, len(msg))
		if err != nil {
			fail(err)
			return
		}
		l.Close(fd)
		if got := l.ReadGhost(buf, n); !bytes.Equal(got, msg) {
			fail(fmt.Errorf("read back %q, want %q", got, msg))
			return
		}
		if tag%2 == 1 {
			if err := l.Unlink(path); err != nil {
				fail(err)
				return
			}
		}

		for i := 0; i < 2; i++ {
			p.Fork(func(c *kernel.Proc) {
				c.Compute(2_000)
			})
		}
		for i := 0; i < 2; i++ {
			p.Wait()
		}
		_ = l.Rand()
		p.Kernel().Console().Printf("phase %d done", tag)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	select {
	case err := <-errs:
		t.Fatalf("phase %d workload: %v", tag, err)
	default:
	}
}

// fingerprint captures and encodes the system's whole state. Two
// machines with bit-identical state produce byte-identical encodings.
func fingerprint(t testing.TB, sys *repro.System) []byte {
	t.Helper()
	img, err := Capture(sys)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRoundTripBitIdentical is the determinism contract: a machine
// restored from a snapshot taken at any quiescent point finishes the
// remaining workload in a state byte-identical to the uninterrupted
// run — same cycles, same ledger, same memory, same kernel structures.
// The snap points include the freshly-booted machine and, on the SMP
// configs, epoch barriers of the host-parallel scheduler.
func TestRoundTripBitIdentical(t *testing.T) {
	const phases = 3
	cfgs := []struct {
		name    string
		mode    core.Mode
		cpus    int
		hostpar bool
	}{
		{"native-1cpu", core.ModeNative, 1, false},
		{"vg-1cpu", core.ModeVirtualGhost, 1, false},
		{"shadow-1cpu", core.ModeShadow, 1, false},
		{"native-4cpu-hostpar", core.ModeNative, 4, true},
		{"vg-4cpu-hostpar", core.ModeVirtualGhost, 4, true},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			cold := newSys(t, c.mode, c.cpus, c.hostpar)
			for i := 0; i < phases; i++ {
				runPhase(t, cold, i)
			}
			want := fingerprint(t, cold)
			wantCycles := cold.Machine.Clock.Cycles()
			wantLedger := cold.Machine.Clock.Ledger()

			for snap := 0; snap < phases; snap++ {
				src := newSys(t, c.mode, c.cpus, c.hostpar)
				for i := 0; i < snap; i++ {
					runPhase(t, src, i)
				}
				img, err := Capture(src)
				if err != nil {
					t.Fatalf("snap point %d: capture: %v", snap, err)
				}
				data, err := Encode(img)
				if err != nil {
					t.Fatalf("snap point %d: encode: %v", snap, err)
				}
				img2, err := Decode(data)
				if err != nil {
					t.Fatalf("snap point %d: decode: %v", snap, err)
				}

				dst := newSys(t, c.mode, c.cpus, c.hostpar)
				if err := Restore(dst, img2); err != nil {
					t.Fatalf("snap point %d: restore: %v", snap, err)
				}
				for i := snap; i < phases; i++ {
					runPhase(t, dst, i)
				}
				if got := fingerprint(t, dst); !bytes.Equal(got, want) {
					t.Errorf("snap point %d: final image differs from uninterrupted run (%d vs %d bytes)", snap, len(got), len(want))
				}
				if got := dst.Machine.Clock.Cycles(); got != wantCycles {
					t.Errorf("snap point %d: cycles %d, want %d", snap, got, wantCycles)
				}
				if got := dst.Machine.Clock.Ledger(); !reflect.DeepEqual(got, wantLedger) {
					t.Errorf("snap point %d: ledger %+v, want %+v", snap, got, wantLedger)
				}
			}
		})
	}
}

// TestForkCOW forks several systems from one image, diverges them
// concurrently, and checks (a) the forks are independent, (b) the image
// is never mutated, and (c) a fork's execution equals a restore's.
func TestForkCOW(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		t.Run(mode.String(), func(t *testing.T) {
			src := newSys(t, mode, 1, false)
			runPhase(t, src, 0)
			img, err := Capture(src)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Encode(img)
			if err != nil {
				t.Fatal(err)
			}

			forks := make([]*repro.System, 3)
			for i := range forks {
				forks[i], err = Fork(img, sysOpts(1, false))
				if err != nil {
					t.Fatalf("fork %d: %v", i, err)
				}
			}
			// Diverge concurrently: forks[0] and forks[2] run the same
			// phase, forks[1] a different one, all sharing the image's
			// pages copy-on-write.
			var wg sync.WaitGroup
			for i, tag := range []int{1, 2, 1} {
				wg.Add(1)
				go func(s *repro.System, tag int) {
					defer wg.Done()
					runPhase(t, s, tag)
				}(forks[i], tag)
			}
			wg.Wait()

			f0 := fingerprint(t, forks[0])
			f1 := fingerprint(t, forks[1])
			f2 := fingerprint(t, forks[2])
			if bytes.Equal(f0, f1) {
				t.Error("forks running different phases produced identical state")
			}
			if !bytes.Equal(f0, f2) {
				t.Error("forks running the same phase diverged")
			}
			if again, err := Encode(img); err != nil || !bytes.Equal(ref, again) {
				t.Errorf("image mutated by forks (err=%v)", err)
			}

			// A restore onto a fresh machine runs the same schedule as a
			// fork.
			dst := newSys(t, mode, 1, false)
			if err := Restore(dst, img); err != nil {
				t.Fatal(err)
			}
			runPhase(t, dst, 1)
			if got := fingerprint(t, dst); !bytes.Equal(got, f0) {
				t.Error("restore and fork of the same image diverged")
			}
		})
	}
}

// TestErrSnapshotStale: restoring an image onto a kernel whose module
// load history differs must fail with the typed sentinel, not silently
// re-link (regression for the code-epoch identity check).
func TestErrSnapshotStale(t *testing.T) {
	const extraSrc = `module extra
func extra(0 params) {
entry:
  ret 0x1
}
`
	withModule := func(t *testing.T) *repro.System {
		sys := newSys(t, core.ModeNative, 1, false)
		m, err := vir.ParseModule(extraSrc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Kernel.LoadModule(m); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	src := withModule(t)
	img, err := Capture(src)
	if err != nil {
		t.Fatal(err)
	}
	plain := newSys(t, core.ModeNative, 1, false)
	if err := Restore(plain, img); !errors.Is(err, kernel.ErrSnapshotStale) {
		t.Fatalf("restore onto kernel missing a module: got %v, want ErrSnapshotStale", err)
	}

	// And the mirror image: plain snapshot onto a module-loaded kernel.
	img2, err := Capture(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(withModule(t), img2); !errors.Is(err, kernel.ErrSnapshotStale) {
		t.Fatalf("restore onto kernel with an extra module: got %v, want ErrSnapshotStale", err)
	}

	// Matching histories restore fine.
	if err := Restore(withModule(t), img); err != nil {
		t.Fatalf("restore with matching modules: %v", err)
	}
}

// TestNotQuiescent: live processes cannot be snapshotted.
func TestNotQuiescent(t *testing.T) {
	sys := newSys(t, core.ModeNative, 1, false)
	if _, err := sys.Kernel.Spawn("spinner", func(p *kernel.Proc) {
		p.Compute(1_000)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(sys); !errors.Is(err, kernel.ErrNotQuiescent) {
		t.Fatalf("capture with live proc: got %v, want ErrNotQuiescent", err)
	}
	sys.Kernel.RunUntilIdle()
	if _, err := Capture(sys); err != nil {
		t.Fatalf("capture after drain: %v", err)
	}
}

// TestModeMismatch: an image restores only onto its own mode.
func TestModeMismatch(t *testing.T) {
	img, err := Capture(newSys(t, core.ModeNative, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(newSys(t, core.ModeVirtualGhost, 1, false), img); err == nil {
		t.Fatal("native image restored onto a Virtual Ghost machine")
	}
}

// TestCorruptImageRejected flips bits across the whole encoded image
// (every header byte, sampled payload bytes, the checksum itself) and
// truncates it at every interesting boundary; Decode must reject every
// mutation with ErrCorruptImage before touching any state.
func TestCorruptImageRejected(t *testing.T) {
	sys := newSys(t, core.ModeVirtualGhost, 1, false)
	runPhase(t, sys, 0)
	data := fingerprint(t, sys)
	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	truncs := []int{0, 1, headerSize - 1, headerSize,
		headerSize + checksumSize, len(data) / 2, len(data) - checksumSize, len(data) - 1}
	for _, n := range truncs {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorruptImage) {
			t.Errorf("truncation to %d bytes: got %v, want ErrCorruptImage", n, err)
		}
	}

	idx := map[int]bool{len(data) - 1: true, len(data) - checksumSize: true}
	for i := 0; i < headerSize; i++ {
		idx[i] = true
	}
	for i := headerSize; i < len(data); i += 251 {
		idx[i] = true
	}
	for i := range idx {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); !errors.Is(err, ErrCorruptImage) {
			t.Errorf("bit flip at offset %d: got %v, want ErrCorruptImage", i, err)
		}
	}
}

// TestVersionMismatch: a well-checksummed image from a different format
// version is refused by the header check, distinctly from corruption.
func TestVersionMismatch(t *testing.T) {
	data := fingerprint(t, newSys(t, core.ModeNative, 1, false))
	body := append([]byte(nil), data[:len(data)-checksumSize]...)
	body[8] = byte(imageVersion + 1) // version field, LE
	sum := sha256.Sum256(body)
	bad := append(body, sum[:]...)
	_, err := Decode(bad)
	if err == nil || errors.Is(err, ErrCorruptImage) {
		t.Fatalf("version-bumped image: got %v, want a version error", err)
	}
}

// TestRecordReplay exercises the nondeterministic-input layer: taps
// capture RNG draws and packet arrivals; a replayer serves them back
// draw-for-draw without advancing the PRNG, falls back to the PRNG when
// exhausted, and re-injects packets at their recorded virtual times.
func TestRecordReplay(t *testing.T) {
	sys := newSys(t, core.ModeNative, 1, false)
	rec := StartRecording(sys)
	var drawn []uint64
	if _, err := sys.Kernel.Spawn("drawer", func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			drawn = append(drawn, p.TrustedRandom())
		}
	}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntilIdle()
	sys.Machine.NIC.Inject(hw.Packet{Port: 7, Payload: []byte("external")})
	r := rec.Stop()
	if !reflect.DeepEqual(r.RNGDraws, drawn) {
		t.Fatalf("recorded draws %v, want %v", r.RNGDraws, drawn)
	}
	if len(r.NetEvents) != 1 || r.NetEvents[0].Port != 7 || string(r.NetEvents[0].Payload) != "external" {
		t.Fatalf("recorded events %+v", r.NetEvents)
	}

	// Replay synthetic draws into a fresh machine; a twin without the
	// replay source shows where the untouched PRNG sequence resumes.
	twin := newSys(t, core.ModeNative, 1, false)
	t1 := twin.Machine.RNG.Next()

	rp := StartReplay(newTestReplaySys(t), &Record{
		RNGDraws: []uint64{11, 22},
		NetEvents: []NetEvent{
			{Cycles: 0, Port: 9, Payload: []byte("x")},
			{Cycles: 1 << 60, Port: 9, Payload: []byte("y")},
		},
	})
	m := rp.m
	if got := m.RNG.Next(); got != 11 {
		t.Fatalf("first replayed draw %d, want 11", got)
	}
	if got := m.RNG.Next(); got != 22 {
		t.Fatalf("second replayed draw %d, want 22", got)
	}
	// Exhausted: the PRNG takes over exactly where it would have been
	// without any replay (serving recorded draws advances no state).
	if got := m.RNG.Next(); got != t1 {
		t.Fatalf("post-record fallback draw %d, want PRNG's %d", got, t1)
	}

	if n := rp.Pump(); n != 1 {
		t.Fatalf("Pump delivered %d events, want 1", n)
	}
	if m.NIC.Pending(9) != 1 {
		t.Fatalf("pending packets %d, want 1", m.NIC.Pending(9))
	}
	if n := rp.PumpTo(1 << 60); n != 1 {
		t.Fatalf("PumpTo delivered %d events, want 1", n)
	}
	rng, net := rp.Remaining()
	if rng != 0 || net != 0 {
		t.Fatalf("remaining rng=%d net=%d, want 0,0", rng, net)
	}
	rp.Stop()
}

func newTestReplaySys(t *testing.T) *repro.System {
	t.Helper()
	return newSys(t, core.ModeNative, 1, false)
}

// TestRecordedImageRoundTrip: the record trailer travels in the image
// and sets the header's recorded flag.
func TestRecordedImageRoundTrip(t *testing.T) {
	sys := newSys(t, core.ModeNative, 1, false)
	rec := StartRecording(sys)
	runPhase(t, sys, 0)
	img, err := Capture(sys)
	if err != nil {
		t.Fatal(err)
	}
	img.Record = rec.Stop()
	if len(img.Record.RNGDraws) == 0 {
		t.Fatal("workload drew no entropy; record is empty")
	}
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	flags, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if flags&flagRecorded == 0 {
		t.Fatal("recorded image missing header flag")
	}
	img2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img2.Record, img.Record) {
		t.Fatal("record trailer did not round-trip")
	}
}
