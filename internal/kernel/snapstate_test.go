package kernel

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestSnapshotBadBufCache: an image whose buffer cache names a block
// outside the disk, holds a short or long buffer, or names one block
// twice is refused before the target kernel changes. Applied, the
// short buffer would panic the next file read.
func TestSnapshotBadBufCache(t *testing.T) {
	src := bootKernel(t, core.ModeNative)
	if !src.WriteKernelFile("/f", []byte("payload")) {
		t.Fatal("WriteKernelFile failed")
	}
	snap, err := src.CaptureKernelSnap()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.BufCache.Bufs) < 2 {
		t.Fatalf("image caches %d blocks, want at least 2", len(snap.BufCache.Bufs))
	}
	nblocks := src.M.Disk.NumBlocks()
	bad := map[string]func(s *BufCacheSnap){
		"block past the disk": func(s *BufCacheSnap) { s.Bufs[0].Blk = nblocks },
		"block 2^40":          func(s *BufCacheSnap) { s.Bufs[0].Blk = 1 << 40 },
		"negative block":      func(s *BufCacheSnap) { s.Bufs[1].Blk = -1 },
		"short buffers": func(s *BufCacheSnap) {
			for i := range s.Bufs {
				s.Bufs[i].Data = s.Bufs[i].Data[:8]
			}
		},
		"long buffer":       func(s *BufCacheSnap) { s.Bufs[0].Data = append(s.Bufs[0].Data, 0) },
		"one block twice":   func(s *BufCacheSnap) { s.Bufs[1].Blk = s.Bufs[0].Blk },
		"missing buffer":    func(s *BufCacheSnap) { s.Bufs[0].Data = nil },
		"last block, twice": func(s *BufCacheSnap) { s.Bufs[0].Blk, s.Bufs[1].Blk = nblocks-1, nblocks-1 },
	}
	for name, mutate := range bad {
		t.Run(name, func(t *testing.T) {
			img := *snap
			img.BufCache.Bufs = make([]BufSnap, len(snap.BufCache.Bufs))
			for i, b := range snap.BufCache.Bufs {
				img.BufCache.Bufs[i] = BufSnap{Blk: b.Blk, Data: bytes.Clone(b.Data), Dirty: b.Dirty}
			}
			mutate(&img.BufCache)
			dst := bootKernel(t, core.ModeNative)
			before := dst.FS.cache.captureSnap()
			if err := dst.ApplyKernelSnap(&img); err == nil {
				t.Fatal("image accepted")
			}
			if after := dst.FS.cache.captureSnap(); !slices.EqualFunc(after.Bufs, before.Bufs, func(a, b BufSnap) bool {
				return a.Blk == b.Blk && a.Dirty == b.Dirty && bytes.Equal(a.Data, b.Data)
			}) || after.Hits != before.Hits || after.Misses != before.Misses {
				t.Error("refused image changed the buffer cache")
			}
			if dst.nextPID != 1 {
				t.Errorf("refused image changed the kernel: nextPID=%d", dst.nextPID)
			}
			if _, ok := dst.ReadKernelFile("/f"); ok {
				t.Error("refused image's file is readable on the target")
			}
		})
	}
}

// TestSnapshotBadDirSlots: an image whose name cache or slot hints
// name a directory slot below 0 or past the largest directory is
// refused before the target kernel changes. Applied, the unlink or
// create that used the slot would panic.
func TestSnapshotBadDirSlots(t *testing.T) {
	src := bootKernel(t, core.ModeNative)
	if !src.WriteKernelFile("/f", []byte("payload")) {
		t.Fatal("WriteKernelFile failed")
	}
	if _, err := src.FS.Create("/g"); err != nil {
		t.Fatal(err)
	}
	snap, err := src.CaptureKernelSnap()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.FS.NameCache) == 0 || len(snap.FS.SlotHints) == 0 {
		t.Fatalf("image has %d name-cache entries and %d slot hints", len(snap.FS.NameCache), len(snap.FS.SlotHints))
	}
	const maxSlots = MaxFileSize / direntSize
	bad := map[string]func(s *FSSnap){
		"name-cache slot -1":     func(s *FSSnap) { s.NameCache[0].Slot = -1 },
		"name-cache slot 2^57":   func(s *FSSnap) { s.NameCache[0].Slot = 1 << 57 },
		"name-cache slot at max": func(s *FSSnap) { s.NameCache[0].Slot = maxSlots },
		"slot hint -100":         func(s *FSSnap) { s.SlotHints[0].Slot = -100 },
		"slot hint past max":     func(s *FSSnap) { s.SlotHints[0].Slot = maxSlots + 1 },
	}
	for name, mutate := range bad {
		t.Run(name, func(t *testing.T) {
			img := *snap
			img.FS.NameCache = slices.Clone(snap.FS.NameCache)
			img.FS.SlotHints = slices.Clone(snap.FS.SlotHints)
			mutate(&img.FS)
			dst := bootKernel(t, core.ModeNative)
			if err := dst.ApplyKernelSnap(&img); err == nil {
				t.Fatal("image accepted")
			}
			if len(dst.FS.namecache) != 0 || len(dst.FS.freeSlotHint) != 0 {
				t.Errorf("refused image changed the file system: %d name-cache entries, %d slot hints", len(dst.FS.namecache), len(dst.FS.freeSlotHint))
			}
		})
	}
	full := *snap
	full.FS.SlotHints = slices.Clone(snap.FS.SlotHints)
	full.FS.SlotHints[0].Slot = maxSlots
	if err := bootKernel(t, core.ModeNative).ApplyKernelSnap(&full); err != nil {
		t.Errorf("a full directory's hint was refused: %v", err)
	}
}
