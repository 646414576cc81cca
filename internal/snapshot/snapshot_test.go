package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/apps/ssh"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/vir"
)

func sysOpts(cpus int) repro.Options {
	return repro.Options{Machine: hw.MachineConfig{NumCPUs: cpus}}
}

func newSys(t testing.TB, mode core.Mode, cpus int) *repro.System {
	t.Helper()
	sys, err := repro.NewSystemWithOptions(mode, sysOpts(cpus))
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
		name string
		mode core.Mode
		cpus int
	}{
		{"native-1cpu", core.ModeNative, 1},
		{"vg-1cpu", core.ModeVirtualGhost, 1},
		{"shadow-1cpu", core.ModeShadow, 1},
		{"native-4cpu", core.ModeNative, 4},
		{"vg-4cpu", core.ModeVirtualGhost, 4},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			cold := newSys(t, c.mode, c.cpus)
			for i := 0; i < phases; i++ {
				runPhase(t, cold, i)
			}
			want := fingerprint(t, cold)
			wantCycles := cold.Machine.Clock.Cycles()
			wantLedger := cold.Machine.Clock.Ledger()

			for snap := 0; snap < phases; snap++ {
				src := newSys(t, c.mode, c.cpus)
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

				dst := newSys(t, c.mode, c.cpus)
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
			src := newSys(t, mode, 1)
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
				forks[i], err = Fork(img, sysOpts(1))
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
			dst := newSys(t, mode, 1)
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
		sys := newSys(t, core.ModeNative, 1)
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
	plain := newSys(t, core.ModeNative, 1)
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

// TestRefusedKernelImageLeavesMachine: an image whose kernel part is
// refused (a buffer cache outside the disk or with short buffers, a
// syscall profile past the dispatch table) fails Restore before the
// machine, the HAL or the kernel changes.
func TestRefusedKernelImageLeavesMachine(t *testing.T) {
	src := newSys(t, core.ModeNative, 1)
	runPhase(t, src, 1)
	bad := map[string]func(ks *kernel.KernelSnap){
		"block outside the disk": func(ks *kernel.KernelSnap) { ks.BufCache.Bufs[0].Blk = 1 << 40 },
		"short buffer":           func(ks *kernel.KernelSnap) { ks.BufCache.Bufs[0].Data = ks.BufCache.Bufs[0].Data[:8] },
		"block twice":            func(ks *kernel.KernelSnap) { ks.BufCache.Bufs[1].Blk = ks.BufCache.Bufs[0].Blk },
		"syscall past the table": func(ks *kernel.KernelSnap) {
			ks.SysProf = append(ks.SysProf, kernel.SyscallCycles{Num: 1 << 40, Name: "bogus", Count: 1})
		},
	}
	for name, mutate := range bad {
		t.Run(name, func(t *testing.T) {
			img, err := Capture(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(img.Kernel.BufCache.Bufs) < 2 {
				t.Fatalf("image caches %d blocks, want at least 2", len(img.Kernel.BufCache.Bufs))
			}
			mutate(img.Kernel)
			dst := newSys(t, core.ModeNative, 1)
			before := fingerprint(t, dst)
			if err := Restore(dst, img); err == nil {
				t.Fatal("image accepted")
			}
			if !bytes.Equal(fingerprint(t, dst), before) {
				t.Error("refused image changed the target machine")
			}
		})
	}
}

// TestNotQuiescent: live processes cannot be snapshotted.
func TestNotQuiescent(t *testing.T) {
	sys := newSys(t, core.ModeNative, 1)
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
	img, err := Capture(newSys(t, core.ModeNative, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(newSys(t, core.ModeVirtualGhost, 1), img); err == nil {
		t.Fatal("native image restored onto a Virtual Ghost machine")
	}
}

// TestCorruptImageRejected flips bits across the whole encoded image
// (every header byte, sampled payload bytes, the checksum itself) and
// truncates it at every interesting boundary; Decode must reject every
// mutation with ErrCorruptImage before touching any state.
func TestCorruptImageRejected(t *testing.T) {
	sys := newSys(t, core.ModeVirtualGhost, 1)
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
	data := fingerprint(t, newSys(t, core.ModeNative, 1))
	body := append([]byte(nil), data[:len(data)-checksumSize]...)
	body[8] = byte(imageVersion + 1) // version field, LE
	sum := sha256.Sum256(body)
	bad := append(body, sum[:]...)
	_, err := Decode(bad)
	if err == nil || errors.Is(err, ErrCorruptImage) {
		t.Fatalf("version-bumped image: got %v, want a version error", err)
	}
}

// TestFlagsWordRefused: no header flag is defined, so a well-checksummed
// image with a non-zero flags word is refused by the header check,
// distinctly from corruption.
func TestFlagsWordRefused(t *testing.T) {
	data := fingerprint(t, newSys(t, core.ModeNative, 1))
	if f := binary.LittleEndian.Uint32(data[12:16]); f != 0 {
		t.Fatalf("Encode wrote flags %#x, want 0", f)
	}
	body := append([]byte(nil), data[:len(data)-checksumSize]...)
	body[12] = 1 // flags field, LE
	sum := sha256.Sum256(body)
	_, err := Decode(append(body, sum[:]...))
	if err == nil || errors.Is(err, ErrCorruptImage) || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("flagged image: got %v, want a flags error", err)
	}
}

// drawRun is what one run of drawWorkload reads and leaves behind.
type drawRun struct {
	Trusted   []uint64          // the VM's trusted-random draws
	DevRandom []byte            // bytes read from /dev/random
	Console   []string          // console transcript since boot
	Files     map[string][]byte // every file in / and its contents
	Ledger    hw.Ledger         // tagged cycles since boot
	Cycles    uint64
}

// drawWorkload runs everything a run reads from the hardware RNG:
// trusted-random draws, a /dev/random read and ssh-keygen (whose key
// pair and application key both come from the RNG).
func drawWorkload(t *testing.T, sys *repro.System) drawRun {
	t.Helper()
	k := sys.Kernel
	var r drawRun
	appKey := make([]byte, 32)
	k.M.RNG.Fill(appKey)
	if _, err := k.InstallTrustedProgram("/bin/ssh-keygen", appKey, ssh.KeygenMain); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("drawer", func(p *kernel.Proc) {
		for i := 0; i < 4; i++ {
			r.Trusted = append(r.Trusted, p.TrustedRandom())
		}
		fd := p.Syscall(kernel.SysOpen, p.PushString("/dev/random"), kernel.ORdOnly)
		buf := p.Alloc(32)
		if n := p.Syscall(kernel.SysRead, fd, buf, 32); n <= 32 {
			r.DevRandom = p.Read(buf, int(n))
		}
		p.Syscall(kernel.SysClose, fd)
		p.Kernel().Console().Printf("drew %x", r.DevRandom)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnProgram("/bin/ssh-keygen"); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if len(r.Trusted) != 4 || len(r.DevRandom) != 32 {
		t.Fatalf("workload drew %d trusted values and %d /dev/random bytes", len(r.Trusted), len(r.DevRandom))
	}
	r.Console = sys.Console()
	r.Ledger = sys.Machine.Clock.Ledger()
	r.Cycles = sys.Machine.Clock.Cycles()
	names, err := k.FS.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	r.Files = make(map[string][]byte)
	for _, name := range names {
		data, ok := k.ReadKernelFile("/" + name)
		if !ok {
			t.Fatalf("reading /%s", name)
		}
		r.Files[name] = data
	}
	return r
}

// TestRestoreRepeatsRun: an image holds the RNG state along with the
// rest of the machine, so a fresh system restored from a post-boot
// image repeats the source's run: the same trusted-random draws,
// /dev/random bytes, key files, console and ledger. Each fresh system
// first draws from its own RNG, so only the restored state can make
// the draws agree; a twin drawn the same way but not restored shows
// that they would differ.
func TestRestoreRepeatsRun(t *testing.T) {
	cfgs := []struct {
		name string
		mode core.Mode
		cpus int
	}{
		{"native", core.ModeNative, 1},
		{"vghost", core.ModeVirtualGhost, 1},
		{"shadow", core.ModeShadow, 1},
		{"vghost-2cpu", core.ModeVirtualGhost, 2},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			src := newSys(t, c.mode, c.cpus)
			data := fingerprint(t, src)
			want := drawWorkload(t, src)
			if len(want.Files) < 2 {
				t.Fatalf("keygen wrote %d files", len(want.Files))
			}

			img, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			dst, twin := newSys(t, c.mode, c.cpus), newSys(t, c.mode, c.cpus)
			for i := 0; i < 3; i++ {
				dst.Machine.RNG.Next()
				twin.Machine.RNG.Next()
			}
			if err := Restore(dst, img); err != nil {
				t.Fatal(err)
			}
			if got := drawWorkload(t, dst); !reflect.DeepEqual(got, want) {
				t.Errorf("restored run differs from the source run:\n got %+v\nwant %+v", got, want)
			}
			if other := drawWorkload(t, twin); reflect.DeepEqual(other.Trusted, want.Trusted) {
				t.Errorf("an unrestored system drew the source's values %v; the check cannot fail", other.Trusted)
			}
		})
	}
}
