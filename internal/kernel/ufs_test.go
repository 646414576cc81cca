package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hw"
)

func bootFS(t *testing.T) (*Kernel, *FS) {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	hal, err := core.NewNativeHAL(m)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(hal)
	if err != nil {
		t.Fatal(err)
	}
	return k, k.FS
}

func TestFSCreateLookupUnlink(t *testing.T) {
	_, fs := bootFS(t)
	ino, err := fs.Create("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Lookup("/a.txt")
	if err != nil || got != ino {
		t.Fatalf("lookup = %d, %v", got, err)
	}
	if _, err := fs.Create("/a.txt"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := fs.Unlink("/a.txt", false); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("/a.txt"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after unlink: %v", err)
	}
}

func TestFSDirectories(t *testing.T) {
	_, fs := bootFS(t)
	if _, err := fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/dir/inner.txt"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("/dir")
	if err != nil || len(names) != 1 || names[0] != "inner.txt" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	// rmdir of a non-empty directory fails.
	if err := fs.Unlink("/dir", true); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("non-empty rmdir: %v", err)
	}
	if err := fs.Unlink("/dir/inner.txt", false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/dir", true); err != nil {
		t.Errorf("empty rmdir: %v", err)
	}
}

func TestFSPathNormalization(t *testing.T) {
	_, fs := bootFS(t)
	if _, err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/d/f", "/d//f", "/d/./f", "/d/../d/f", "//d/f"} {
		got, err := fs.Lookup(p)
		if err != nil || got != ino {
			t.Errorf("lookup %q = %d, %v", p, got, err)
		}
	}
	if _, err := fs.Lookup("relative"); !errors.Is(err, ErrBadName) {
		t.Errorf("relative path: %v", err)
	}
}

// TestSplitPath pins splitPath's rules: empty components and "." are
// skipped, ".." drops the component before it and stays at the root,
// and a path deeper than the walk's stack array still splits whole.
func TestSplitPath(t *testing.T) {
	deep := make([]string, pathComps+5)
	for i := range deep {
		deep[i] = fmt.Sprint("d", i)
	}
	for _, tc := range []struct {
		path string
		want []string
	}{
		{"/", []string{}},
		{"/a", []string{"a"}},
		{"/a/b/c", []string{"a", "b", "c"}},
		{"/.", []string{}},
		{"/a/./b/.", []string{"a", "b"}},
		{"/..", []string{}},
		{"/../../a", []string{"a"}},
		{"/a/../..", []string{}},
		{"/a/b/../c", []string{"a", "c"}},
		{"/a/../../b/..", []string{}},
		{"//a///b//", []string{"a", "b"}},
		{"/a/b/", []string{"a", "b"}},
		{"/a/.../b", []string{"a", "...", "b"}},
		{"/" + strings.Join(deep, "/"), deep},
		{"/" + strings.Join(deep, "/") + "/../x", append(slices.Clone(deep[:len(deep)-1]), "x")},
	} {
		var buf [pathComps]string
		got, err := splitPath(tc.path, buf[:])
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("splitPath(%q) = %q, %v; want %q", tc.path, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "a/b", "./a", "../a"} {
		if got, err := splitPath(bad, nil); !errors.Is(err, ErrBadName) {
			t.Errorf("splitPath(%q) = %q, %v; want ErrBadName", bad, got, err)
		}
	}
}

func TestFSBadNames(t *testing.T) {
	_, fs := bootFS(t)
	long := "/" + string(bytes.Repeat([]byte{'x'}, maxNameLen+1))
	if _, err := fs.Create(long); !errors.Is(err, ErrBadName) {
		t.Errorf("overlong name accepted: %v", err)
	}
}

func TestFSWriteReadSmall(t *testing.T) {
	_, fs := bootFS(t)
	ino, _ := fs.Create("/f")
	data := []byte("hello block world")
	if n, err := fs.WriteAt(ino, data, 0); err != nil || n != len(data) {
		t.Fatalf("write = %d, %v", n, err)
	}
	buf := make([]byte, 64)
	n, err := fs.ReadAt(ino, buf, 0)
	if err != nil || n != len(data) || !bytes.Equal(buf[:n], data) {
		t.Fatalf("read = %d %q %v", n, buf[:n], err)
	}
}

func TestFSOffsetsAndPartialBlocks(t *testing.T) {
	_, fs := bootFS(t)
	ino, _ := fs.Create("/f")
	// Write at a non-aligned offset inside the first block.
	if _, err := fs.WriteAt(ino, []byte("abc"), 100); err != nil {
		t.Fatal(err)
	}
	// Byte 0..99 are a hole and must read as zeros.
	buf := make([]byte, 103)
	n, err := fs.ReadAt(ino, buf, 0)
	if err != nil || n != 103 {
		t.Fatalf("read = %d, %v", n, err)
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, buf[i])
		}
	}
	if string(buf[100:]) != "abc" {
		t.Errorf("tail = %q", buf[100:])
	}
	// Read past EOF returns 0.
	if n, _ := fs.ReadAt(ino, buf, 500); n != 0 {
		t.Errorf("read past EOF = %d", n)
	}
}

func TestFSLargeFileIndirectBlocks(t *testing.T) {
	_, fs := bootFS(t)
	ino, _ := fs.Create("/big")
	// Beyond the 10 direct blocks (40 KiB) into the indirect range.
	size := 60 * 1024
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i / 3)
	}
	if n, err := fs.WriteAt(ino, data, 0); err != nil || n != size {
		t.Fatalf("write = %d, %v", n, err)
	}
	st, _ := fs.Stat(ino)
	if st.Size != int64(size) {
		t.Errorf("size = %d", st.Size)
	}
	got := make([]byte, size)
	if n, err := fs.ReadAt(ino, got, 0); err != nil || n != size {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("indirect-block data corrupt")
	}
}

func TestFSHolePastDirectBlocks(t *testing.T) {
	_, fs := bootFS(t)
	ino, _ := fs.Create("/sparse")
	off := int64(50 * 1024) // lands in the indirect range
	if _, err := fs.WriteAt(ino, []byte("tail"), off); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := fs.ReadAt(ino, buf, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Errorf("hole not zero")
	}
}

func TestFSMaxFileSize(t *testing.T) {
	_, fs := bootFS(t)
	ino, _ := fs.Create("/huge")
	if _, err := fs.WriteAt(ino, []byte("x"), MaxFileSize); !errors.Is(err, ErrTooBig) {
		t.Errorf("write past max size: %v", err)
	}
}

func TestFSUnlinkFreesBlocks(t *testing.T) {
	_, fs := bootFS(t)
	// Determine the free-block baseline by counting bitmap bits.
	countUsed := func() int {
		used := 0
		for b := 0; b < fs.nblocks; b++ {
			ok, err := fs.bitmapGet(fs.blockBitmap, b)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				used++
			}
		}
		return used
	}
	// Force the root directory's data block to exist first so the
	// baseline excludes it (directories keep their blocks).
	if _, err := fs.Create("/tmp0"); err != nil {
		t.Fatal(err)
	}
	before := countUsed()
	ino, _ := fs.Create("/tmp1")
	if _, err := fs.WriteAt(ino, make([]byte, 50*1024), 0); err != nil {
		t.Fatal(err)
	}
	if countUsed() <= before {
		t.Fatalf("blocks not allocated")
	}
	if err := fs.Unlink("/tmp1", false); err != nil {
		t.Fatal(err)
	}
	if got := countUsed(); got != before {
		t.Errorf("blocks leaked: %d used, want %d", got, before)
	}
}

func TestFSInodeReuse(t *testing.T) {
	_, fs := bootFS(t)
	ino1, _ := fs.Create("/r1")
	if err := fs.Unlink("/r1", false); err != nil {
		t.Fatal(err)
	}
	ino2, _ := fs.Create("/r2")
	if ino2 != ino1 {
		t.Logf("inode not immediately reused (%d vs %d) — acceptable", ino1, ino2)
	}
	st, err := fs.Stat(ino2)
	if err != nil || st.Size != 0 {
		t.Errorf("reused inode dirty: %+v, %v", st, err)
	}
}

// TestFSWriteReadProperty: random (offset, data) writes followed by
// reads return exactly what a shadow model (a Go byte slice) predicts.
func TestFSWriteReadProperty(t *testing.T) {
	_, fs := bootFS(t)
	ino, _ := fs.Create("/prop")
	shadow := make([]byte, MaxFileSize)
	maxOff := 100 * 1024
	written := 0
	fn := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := int(off) % maxOff
		if n, err := fs.WriteAt(ino, data, int64(o)); err != nil || n != len(data) {
			return false
		}
		copy(shadow[o:], data)
		if o+len(data) > written {
			written = o + len(data)
		}
		buf := make([]byte, len(data)+32)
		n, err := fs.ReadAt(ino, buf, int64(o))
		if err != nil {
			return false
		}
		return bytes.Equal(buf[:minI(n, len(data))], shadow[o:o+minI(n, len(data))])
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFSPersistenceThroughCacheDrop(t *testing.T) {
	_, fs := bootFS(t)
	ino, _ := fs.Create("/persist")
	data := []byte("must survive the cache")
	if _, err := fs.WriteAt(ino, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Cache().DropClean(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := fs.ReadAt(ino, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("data lost across cache drop: %q", buf)
	}
}

func TestFSManyFiles(t *testing.T) {
	_, fs := bootFS(t)
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := fs.Create(fmt.Sprintf("/many%03d", i)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	names, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != n {
		t.Errorf("readdir = %d entries", len(names))
	}
	for i := 0; i < n; i += 2 {
		if err := fs.Unlink(fmt.Sprintf("/many%03d", i), false); err != nil {
			t.Fatalf("unlink %d: %v", i, err)
		}
	}
	names, _ = fs.ReadDir("/")
	if len(names) != n/2 {
		t.Errorf("after unlinks: %d entries", len(names))
	}
	// Directory slots are reused.
	if _, err := fs.Create("/fresh"); err != nil {
		t.Fatal(err)
	}
}

func TestBufCacheLRUAndWriteback(t *testing.T) {
	k, _ := bootFS(t)
	cache := NewBufCache(k, k.M.Disk, 4)
	// Touch 6 distinct blocks through a 4-entry cache.
	for blk := 100; blk < 106; blk++ {
		if err := cache.Write(blk, []byte{byte(blk)}); err != nil {
			t.Fatal(err)
		}
	}
	_, misses, writebacks := cache.Stats()
	if misses == 0 || writebacks == 0 {
		t.Errorf("expected misses and writebacks, got %d/%d", misses, writebacks)
	}
	// Evicted dirty blocks must be readable from disk again.
	got, err := cache.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 {
		t.Errorf("writeback lost data: %d", got[0])
	}
	// Hits do not touch the disk.
	r0, _ := k.M.Disk.Stats()
	if _, err := cache.Read(100); err != nil {
		t.Fatal(err)
	}
	r1, _ := k.M.Disk.Stats()
	if r1 != r0 {
		t.Errorf("cache hit went to disk")
	}
}

func TestBufCacheSync(t *testing.T) {
	k, _ := bootFS(t)
	cache := NewBufCache(k, k.M.Disk, 16)
	if err := cache.Write(200, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := cache.Sync(); err != nil {
		t.Fatal(err)
	}
	raw := k.M.Disk.PeekBlock(200)
	if !bytes.HasPrefix(raw, []byte("dirty")) {
		t.Errorf("sync did not reach the disk")
	}
}

// TestDiskErrorPropagates: an injected media error surfaces as a
// syscall error and the kernel stays functional.
func TestDiskErrorPropagates(t *testing.T) {
	k, fs := bootFS(t)
	// Force subsequent reads to hit the disk.
	ino, _ := fs.Create("/flaky")
	if _, err := fs.WriteAt(ino, []byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Cache().DropClean(); err != nil {
		t.Fatal(err)
	}
	k.M.Disk.InjectFailures(1)
	buf := make([]byte, 4)
	if _, err := fs.ReadAt(ino, buf, 0); err == nil {
		t.Errorf("injected disk failure swallowed")
	}
	// After the failure window, the data is still there.
	if _, err := fs.ReadAt(ino, buf, 0); err != nil {
		t.Errorf("read after recovery: %v", err)
	}
	if string(buf) != "data" {
		t.Errorf("data corrupted across failure: %q", buf)
	}
}

// TestDiskErrorDuringSyscall: the same failure through the syscall
// interface kills nothing.
func TestDiskErrorDuringSyscall(t *testing.T) {
	k, _ := bootFS(t)
	k.WriteKernelFile("/flaky2", []byte("payload"))
	_ = k.FS.Cache().DropClean()
	var readErr, readOK uint64
	_, err := k.Spawn("p", func(p *Proc) {
		fd := p.Syscall(SysOpen, p.PushString("/flaky2"), ORdOnly)
		k.M.Disk.InjectFailures(1)
		buf := p.Alloc(16)
		readErr = p.Syscall(SysRead, fd, buf, 7)
		p.Syscall(SysLseek, fd, 0, 0)
		readOK = p.Syscall(SysRead, fd, buf, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if _, bad := IsErr(readErr); !bad {
		t.Errorf("first read should fail, got %d", int64(readErr))
	}
	if readOK != 7 {
		t.Errorf("second read = %d", int64(readOK))
	}
}

// TestDirLookupColdNameCache drives the directory walks that the name
// cache otherwise answers: names spread over four directory blocks,
// names that are prefixes of one another, a maximal 56-byte name beside
// its 55-byte prefix, and freed slots between live ones. Each lookup
// runs twice: once through the root's index, and once with the index
// dropped as well, so the compare scan runs.
func TestDirLookupColdNameCache(t *testing.T) {
	_, fs := bootFS(t)
	long := strings.Repeat("n", maxNameLen)
	names := []string{"a", "ab", "abc", long, long[:maxNameLen-1]}
	for i := 0; i < 200; i++ {
		names = append(names, fmt.Sprintf("f%03d", i))
	}
	if blocks := (len(names) + direntsPerBlk - 1) / direntsPerBlk; blocks < 3 {
		t.Fatalf("names fill %d directory blocks, want at least 3", blocks)
	}
	inos := make(map[string]uint32, len(names))
	for _, n := range names {
		ino, err := fs.Create("/" + n)
		if err != nil {
			t.Fatalf("create %q: %v", n, err)
		}
		inos[n] = ino
	}
	var live, gone []string
	for i, n := range names {
		if i%3 == 0 {
			if err := fs.Unlink("/"+n, false); err != nil {
				t.Fatalf("unlink %q: %v", n, err)
			}
			gone = append(gone, n)
		} else {
			live = append(live, n)
		}
	}
	// "a" and the 56-byte name are gone; "ab", "abc" and the 55-byte
	// prefix stay live.
	never := []string{"abcd", "f", "f00", "f1", long[:maxNameLen-2]}
	for _, scan := range []bool{false, true} {
		lookup := func(n string) (uint32, error) {
			clear(fs.namecache)
			if scan {
				clear(fs.dirIndex)
			} else if _, ok := fs.dirIndex[RootIno]; !ok {
				t.Fatal("the root directory has no index")
			}
			return fs.Lookup("/" + n)
		}
		for _, n := range live {
			if got, err := lookup(n); err != nil || got != inos[n] {
				t.Errorf("scan=%v: lookup %q = %d, %v; want inode %d", scan, n, got, err, inos[n])
			}
		}
		for _, n := range append(gone, never...) {
			if got, err := lookup(n); !errors.Is(err, ErrNotFound) {
				t.Errorf("scan=%v: lookup %q = %d, %v; want ErrNotFound", scan, n, got, err)
			}
		}
	}
	clear(fs.namecache)
	listed, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(listed, "/") != strings.Join(live, "/") {
		t.Errorf("readdir = %q\nwant %q", listed, live)
	}

	if _, err := fs.Mkdir("/sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/sub/only"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/sub", true); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("rmdir with a live entry: %v, want ErrNotEmpty", err)
	}
	if err := fs.Unlink("/sub/only", false); err != nil {
		t.Fatal(err)
	}
	clear(fs.namecache)
	if err := fs.Unlink("/sub", true); err != nil {
		t.Errorf("rmdir of a directory whose only entry was unlinked: %v", err)
	}
}

// TestMkfsSmallDisks: Mkfs sizes the inode table by the disk, so a
// small disk boots with room for data. On 16-, 64-, 128- and 200-block
// disks a process creates a file, writes it, reads it back and unlinks
// it; a 3-block disk, which has no block left after the metadata, fails
// to boot.
func TestMkfsSmallDisks(t *testing.T) {
	for _, nblocks := range []int{16, 64, 128, 200} {
		m := hw.NewMachine(hw.MachineConfig{MemFrames: 2048, DiskBlocks: nblocks, Seed: 1})
		hal, err := core.NewNativeHAL(m)
		if err != nil {
			t.Fatal(err)
		}
		k, err := Boot(hal)
		if err != nil {
			t.Fatalf("%d blocks: boot: %v", nblocks, err)
		}
		want := bytes.Repeat([]byte("small disk "), 600) // two blocks
		var got []byte
		var unlinked uint64
		if _, err := k.Spawn("user", func(p *Proc) {
			path := p.PushString("/f")
			fd := p.Syscall(SysOpen, path, OCreat|ORdWr)
			if e, bad := IsErr(fd); bad {
				t.Errorf("%d blocks: create: errno %d", nblocks, e)
				return
			}
			buf := p.Alloc(len(want))
			p.Write(buf, want)
			if n := p.Syscall(SysWrite, fd, buf, uint64(len(want))); n != uint64(len(want)) {
				t.Errorf("%d blocks: write = %d", nblocks, int64(n))
			}
			p.Syscall(SysLseek, fd, 0, 0)
			back := p.Alloc(len(want))
			n := p.Syscall(SysRead, fd, back, uint64(len(want)))
			got = p.Read(back, int(min(n, uint64(len(want)))))
			p.Syscall(SysClose, fd)
			unlinked = p.Syscall(SysUnlink, path)
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
		if !bytes.Equal(got, want) {
			t.Errorf("%d blocks: read back %d bytes, want the %d written", nblocks, len(got), len(want))
		}
		if _, err := k.FS.Lookup("/f"); unlinked != 0 || !errors.Is(err, ErrNotFound) {
			t.Errorf("%d blocks: unlink = %d, lookup after it: %v", nblocks, int64(unlinked), err)
		}
	}
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 2048, DiskBlocks: 3, Seed: 1})
	hal, err := core.NewNativeHAL(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Boot(hal); err == nil {
		t.Error("a 3-block disk booted")
	}
}
