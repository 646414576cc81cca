package libc

import (
	"bytes"

	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
)

func bootVG(t *testing.T) *kernel.Kernel {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	hal, err := core.NewVM(m)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(hal)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// runGhosting spawns a signed program with a fresh key and runs body
// with its Libc.
func runGhosting(t *testing.T, k *kernel.Kernel, body func(p *kernel.Proc, l *Libc)) {
	t.Helper()
	appKey := make([]byte, 32)
	k.M.RNG.Fill(appKey)
	if _, err := k.InstallTrustedProgram("/bin/t", appKey, func(p *kernel.Proc) {
		l, err := NewGhosting(p)
		if err != nil {
			t.Errorf("NewGhosting: %v", err)
			return
		}
		body(p, l)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnProgram("/bin/t"); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
}

func TestGhostMallocRoundTrip(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		ptr, err := l.Malloc(100)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("one hundred bytes of ghost data........")
		l.WriteGhost(ptr, data)
		if !bytes.Equal(l.ReadGhost(ptr, len(data)), data) {
			t.Errorf("round trip failed")
		}
	})
}

func TestGhostMallocDistinctBlocks(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		a, _ := l.Malloc(64)
		b, _ := l.Malloc(64)
		l.WriteGhost(a, bytes.Repeat([]byte{0xaa}, 64))
		l.WriteGhost(b, bytes.Repeat([]byte{0xbb}, 64))
		if l.ReadGhost(a, 1)[0] != 0xaa || l.ReadGhost(b, 1)[0] != 0xbb {
			t.Errorf("blocks alias each other")
		}
	})
}

func TestGhostCallocZeroes(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		a, _ := l.Malloc(128)
		l.WriteGhost(a, bytes.Repeat([]byte{0xff}, 128))
		l.Free(a)
		b, _ := l.Calloc(128) // likely recycles a's chunk
		for _, v := range l.ReadGhost(b, 128) {
			if v != 0 {
				t.Fatalf("calloc returned dirty memory")
			}
		}
	})
}

func TestGhostRealloc(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		a, _ := l.Malloc(32)
		l.WriteGhost(a, []byte("keep me around please!!"))
		b, err := l.Realloc(a, 23, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if string(l.ReadGhost(b, 23)) != "keep me around please!!" {
			t.Errorf("realloc lost contents")
		}
	})
}

func TestGhostLargeAllocation(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		big, err := l.Malloc(3 * hw.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		pattern := make([]byte, 3*hw.PageSize)
		for i := range pattern {
			pattern[i] = byte(i * 7)
		}
		l.WriteGhost(big, pattern)
		if !bytes.Equal(l.ReadGhost(big, len(pattern)), pattern) {
			t.Errorf("multi-page block corrupt")
		}
		l.Free(big)
	})
}

// TestGhostHeapInvariants drives the allocator with a random workload
// and checks the free-list invariants after every step.
func TestGhostHeapInvariants(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		rng := rand.New(rand.NewSource(7))
		type alloc struct {
			ptr GPtr
			n   int
		}
		var live []alloc
		for step := 0; step < 400; step++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				n := 1 + rng.Intn(5000)
				ptr, err := l.Malloc(n)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, alloc{ptr, n})
			} else {
				i := rng.Intn(len(live))
				l.Free(live[i].ptr)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := l.heap.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		// Live blocks must not overlap: write distinct patterns then
		// verify.
		for i, a := range live {
			pat := bytes.Repeat([]byte{byte(i + 1)}, minI(a.n, 16))
			l.WriteGhost(a.ptr, pat)
		}
		for i, a := range live {
			pat := bytes.Repeat([]byte{byte(i + 1)}, minI(a.n, 16))
			if !bytes.Equal(l.ReadGhost(a.ptr, len(pat)), pat) {
				t.Fatalf("block %d overlaps another", i)
			}
		}
	})
}

func TestGhostFreeUnknownPanics(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		defer func() {
			if recover() == nil {
				t.Errorf("freeing a wild pointer did not panic")
			}
		}()
		l.Free(GPtr(uint64(hw.GhostBase) + 0x123450))
	})
}

func TestFileIOThroughStaging(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		msg := []byte("written from ghost memory through staging")
		src, _ := l.Malloc(len(msg))
		l.WriteGhost(src, msg)
		fd, err := l.Open("/f.txt", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := l.Write(fd, src, len(msg)); err != nil || n != len(msg) {
			t.Fatalf("write = %d, %v", n, err)
		}
		p.Syscall(kernel.SysLseek, uint64(fd), 0, 0)
		dst, _ := l.Malloc(len(msg))
		if n, err := l.Read(fd, dst, len(msg)); err != nil || n != len(msg) {
			t.Fatalf("read = %d, %v", n, err)
		}
		if !bytes.Equal(l.ReadGhost(dst, len(msg)), msg) {
			t.Errorf("file round trip corrupt")
		}
		l.Close(fd)
		if err := l.Unlink("/f.txt"); err != nil {
			t.Errorf("unlink: %v", err)
		}
	})
}

func TestLargeFileIO(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		// Larger than the staging buffer to exercise chunking.
		msg := make([]byte, 100_000)
		for i := range msg {
			msg[i] = byte(i % 251)
		}
		src, _ := l.Malloc(len(msg))
		l.WriteGhost(src, msg)
		fd, _ := l.Open("/big", kernel.OCreat|kernel.ORdWr)
		if n, err := l.Write(fd, src, len(msg)); err != nil || n != len(msg) {
			t.Fatalf("write = %d, %v", n, err)
		}
		p.Syscall(kernel.SysLseek, uint64(fd), 0, 0)
		dst, _ := l.Malloc(len(msg))
		if n, err := l.Read(fd, dst, len(msg)); err != nil || n != len(msg) {
			t.Fatalf("read = %d, %v", n, err)
		}
		if !bytes.Equal(l.ReadGhost(dst, len(msg)), msg) {
			t.Errorf("chunked IO corrupt")
		}
	})
}

func TestSecureFileRoundTripAndTamper(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		if !l.HasKey() {
			t.Fatal("no app key")
		}
		secret := []byte("seal me away from the OS")
		src, _ := l.Malloc(len(secret))
		l.WriteGhost(src, secret)
		if err := l.SecureWriteFile("/s.sealed", src, len(secret)); err != nil {
			t.Fatal(err)
		}
		// The on-disk bytes are ciphertext.
		raw, _ := k.ReadKernelFile("/s.sealed")
		if bytes.Contains(raw, secret) {
			t.Errorf("sealed file contains plaintext")
		}
		out, n, err := l.SecureReadFile("/s.sealed")
		if err != nil || !bytes.Equal(l.ReadGhost(out, n), secret) {
			t.Fatalf("secure read failed: %v", err)
		}
		// Hostile OS tampers; the next read must fail.
		raw[len(raw)-1] ^= 1
		k.WriteKernelFile("/s.sealed", raw)
		if _, _, err := l.SecureReadFile("/s.sealed"); err == nil {
			t.Errorf("tampered sealed file accepted")
		}
	})
}

func TestKeyLivesInGhostMemory(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		key := l.Key()
		if len(key) != 32 {
			t.Fatalf("key len %d", len(key))
		}
		// The kernel cannot read it at its ghost address.
		v, err := k.HAL.KLoad(p.Root(), hw.Virt(l.keyPtr), 8)
		if err != nil {
			t.Fatal(err)
		}
		var first8 uint64
		for i := 7; i >= 0; i-- {
			first8 = first8<<8 | uint64(key[i])
		}
		if v == first8 && first8 != 0 {
			t.Errorf("kernel read the application key out of ghost memory")
		}
	})
}

func TestSignalWrapperRegistersWithVM(t *testing.T) {
	k := bootVG(t)
	got := 0
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		if _, err := l.Signal(kernel.SIGUSR1, func(p *kernel.Proc, args []uint64) {
			got = int(args[0])
		}); err != nil {
			t.Fatal(err)
		}
		p.Syscall(kernel.SysKill, uint64(p.PID), kernel.SIGUSR1)
	})
	if got != kernel.SIGUSR1 {
		t.Errorf("handler saw %d", got)
	}
	if k.Stats().SignalsBlocked != 0 {
		t.Errorf("legitimate handler was blocked")
	}
}

func TestMmapWrapperIagoDefence(t *testing.T) {
	k := bootVG(t)
	// A hostile mmap returns a ghost pointer.
	orig := k.SetSyscallHandler(kernel.SysMmap,
		func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
			return uint64(hw.GhostBase) + 0x2000
		})
	_ = orig
	appKey := make([]byte, 32)
	k.M.RNG.Fill(appKey)
	rejected := false
	// NewGhosting itself mmaps; bypass it and test the wrapper directly
	// with a raw proc plus a hand-built Libc.
	if _, err := k.Spawn("iago", func(p *kernel.Proc) {
		l := &Libc{P: p, stagingSize: stagingSize}
		if _, err := l.Mmap(hw.PageSize); err != nil {
			rejected = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if !rejected {
		t.Errorf("Iago mmap pointer accepted")
	}
}

func TestRandUsesTrustedSource(t *testing.T) {
	k := bootVG(t)
	k.SetDevRandomHook(func() uint64 { return 4 })
	vals := map[uint64]bool{}
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		for i := 0; i < 8; i++ {
			vals[l.Rand()] = true
		}
	})
	if len(vals) < 8 {
		t.Errorf("trusted randomness influenced by OS hook: %d distinct", len(vals))
	}
}

// TestHeapStatsAccounting sanity-checks the allocator counters with
// quick-generated workloads.
func TestHeapStatsAccounting(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		a0, f0, _ := l.HeapStats()
		fn := func(sizes []uint16) bool {
			var ptrs []GPtr
			for _, s := range sizes {
				ptr, err := l.Malloc(int(s)%3000 + 1)
				if err != nil {
					return false
				}
				ptrs = append(ptrs, ptr)
			}
			for _, ptr := range ptrs {
				l.Free(ptr)
			}
			a, f, _ := l.HeapStats()
			return a-a0 == f-f0
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- replay protection (paper §10 future work) --------------------------

func TestVersionedFilesDetectReplay(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		write := func(s string) {
			src, _ := l.Malloc(len(s))
			l.WriteGhost(src, []byte(s))
			if err := l.SecureWriteFileVersioned("/v.sealed", src, len(s)); err != nil {
				t.Fatal(err)
			}
		}
		write("version one")
		// The hostile OS squirrels away the old file...
		old, _ := k.ReadKernelFile("/v.sealed")
		write("version two")
		// Fresh read succeeds.
		out, n, err := l.SecureReadFileVersioned("/v.sealed")
		if err != nil || string(l.ReadGhost(out, n)) != "version two" {
			t.Fatalf("fresh read: %v", err)
		}
		// ...and replays it.
		k.WriteKernelFile("/v.sealed", old)
		if _, _, err := l.SecureReadFileVersioned("/v.sealed"); err == nil {
			t.Errorf("replayed stale file accepted")
		}
	})
}

func TestVersionedFilesDetectSplice(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		for _, f := range []struct{ path, data string }{
			{"/a.sealed", "contents of a"},
			{"/b.sealed", "contents of b"},
		} {
			src, _ := l.Malloc(len(f.data))
			l.WriteGhost(src, []byte(f.data))
			if err := l.SecureWriteFileVersioned(f.path, src, len(f.data)); err != nil {
				t.Fatal(err)
			}
		}
		// The OS swaps the two files' contents.
		a, _ := k.ReadKernelFile("/a.sealed")
		b, _ := k.ReadKernelFile("/b.sealed")
		k.WriteKernelFile("/a.sealed", b)
		k.WriteKernelFile("/b.sealed", a)
		if _, _, err := l.SecureReadFileVersioned("/a.sealed"); err == nil {
			t.Errorf("spliced file accepted")
		}
	})
}

func TestVersionedFilesNormalUse(t *testing.T) {
	k := bootVG(t)
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		for i := 1; i <= 5; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 100)
			src, _ := l.Malloc(len(msg))
			l.WriteGhost(src, msg)
			if err := l.SecureWriteFileVersioned("/cycle.sealed", src, len(msg)); err != nil {
				t.Fatal(err)
			}
			out, n, err := l.SecureReadFileVersioned("/cycle.sealed")
			if err != nil || !bytes.Equal(l.ReadGhost(out, n), msg) {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	})
}

// TestReadRejectsInflatedCount is the Iago defence for read: a hostile
// read that reports more bytes than the chunk it was asked for must not
// make the wrapper copy past the destination. The ghost block just
// after dst stays intact and Read returns an error.
func TestReadRejectsInflatedCount(t *testing.T) {
	k := bootVG(t)
	if !k.WriteKernelFile("/data.bin", bytes.Repeat([]byte{0x5a}, 256)) {
		t.Fatal("seeding /data.bin failed")
	}
	guardBytes := bytes.Repeat([]byte{0xee}, 64)
	var n int
	var readErr error
	var guardAfter []byte
	runGhosting(t, k, func(p *kernel.Proc, l *Libc) {
		// Size-class chunks are handed out downwards, so the block
		// allocated first sits directly after dst.
		guard, err := l.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := l.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if guard != dst+64 {
			t.Fatalf("guard at %#x, want it right after dst %#x", uint64(guard), uint64(dst))
		}
		l.WriteGhost(guard, guardBytes)
		fd, err := l.Open("/data.bin", kernel.ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		var orig kernel.SyscallHandler
		orig = k.SetSyscallHandler(kernel.SysRead, func(k *kernel.Kernel, p *kernel.Proc, ic core.IContext) uint64 {
			ret := orig(k, p, ic)
			if _, bad := kernel.IsErr(ret); bad {
				return ret
			}
			return ret + 64
		})
		n, readErr = l.Read(fd, dst, 64)
		k.SetSyscallHandler(kernel.SysRead, orig)
		guardAfter = l.ReadGhost(guard, 64)
	})
	if !bytes.Equal(guardAfter, guardBytes) {
		t.Errorf("ghost block after dst overwritten: % x", guardAfter[:8])
	}
	if readErr == nil {
		t.Errorf("Read accepted an inflated count and returned %d", n)
	}
}
