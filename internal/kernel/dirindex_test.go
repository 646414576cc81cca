package kernel

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
)

// peekBlock returns blk's bytes as the file system sees them, the
// cached buffer or else the disk's, without charging anything or
// touching the LRU order.
func peekBlock(fs *FS, blk int) []byte {
	if b := fs.cache.lookup(blk); b != nil {
		return b.data
	}
	return fs.k.M.Disk.PeekBlock(blk)
}

// decodeDir reads directory dirIno's live names and their slots
// through peekBlock. ok is false when the inode is not a directory or
// a name repeats (a directory the index must not cover).
func decodeDir(fs *FS, dirIno uint32) (names map[string]int, ok bool) {
	blk, off := fs.inodeLoc(dirIno)
	d := peekBlock(fs, blk)[off : off+inodeSize]
	if mode := uint16(d[0]) | uint16(d[1])<<8; mode != modeDir {
		return nil, false
	}
	names = make(map[string]int)
	for s := 0; s < int(getU64(d[8:]))/direntSize; s++ {
		fb := s / direntsPerBlk
		var b uint32
		if fb < ndirect {
			b = getU32(d[16+4*fb:])
		} else if ind := getU32(d[16+4*ndirect:]); ind != 0 {
			b = getU32(peekBlock(fs, int(ind))[4*(fb-ndirect):])
		}
		if b == 0 {
			continue
		}
		ino, nm := direntAt(peekBlock(fs, int(b)), s%direntsPerBlk)
		if ino == 0 {
			continue
		}
		if _, dup := names[string(nm)]; dup {
			return nil, false
		}
		names[string(nm)] = s
	}
	return names, true
}

// checkDirIndexes fails unless every directory index of fs equals a
// decode of its directory's blocks.
func checkDirIndexes(t *testing.T, step int, op string, side string, fs *FS) {
	t.Helper()
	for dir, idx := range fs.dirIndex {
		want, ok := decodeDir(fs, dir)
		if !ok {
			t.Fatalf("step %d %s: %s keeps an index for inode %d, which is not an indexable directory", step, op, side, dir)
		}
		if !maps.Equal(idx, want) {
			t.Fatalf("step %d %s: %s's index of inode %d has %d names, its blocks hold %d\n index %v\nblocks %v", step, op, side, dir, len(idx), len(want), idx, want)
		}
	}
}

// lruOrder lists the cached block numbers, most recent first.
func lruOrder(c *BufCache) []int {
	var out []int
	for b := c.head; b != nil; b = b.next {
		out = append(out, b.blk)
	}
	return out
}

// dirIndexSide is one of TestDirIndexMatchesScan's two kernels and the
// image it captured last.
type dirIndexSide struct {
	name string
	k    *Kernel
	ms   *hw.MachineSnap
	ks   *KernelSnap
}

// TestDirIndexMatchesScan drives one seeded script of file-system
// operations through two kernels in lockstep. The second drops its
// directory indexes before every operation. No operation looks one
// directory up twice unless the name cache answers the second time, so
// every walk on the second kernel is the compare scan. After every
// operation both kernels must return the same result, charge the same
// ledger, count the same buffer-cache hits, misses and writebacks in
// the same LRU order, and hold only indexes that equal a decode of
// their directories' blocks.
//
// The script creates, unlinks, makes and removes directories, and looks
// up live, unlinked and never-created names: names that are prefixes
// of one another, and a 56-byte name beside its 55-byte prefix. It
// clears the name cache, and restores an image captured earlier, after
// which an index that survived would be stale. /big grows past the 640
// slots of its direct blocks, so walks reach its indirect block.
func TestDirIndexMatchesScan(t *testing.T) {
	long := strings.Repeat("n", maxNameLen)
	pool := []string{"a", "ab", "abc", long, long[:maxNameLen-1], long[:maxNameLen-2]}
	for i := 0; i < 24; i++ {
		pool = append(pool, fmt.Sprintf("f%02d", i))
	}
	dirs := []string{"", "/big", "/d1", "/d1/sub"}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			kA, _ := bootFS(t)
			kB, _ := bootFS(t)
			sides := []*dirIndexSide{{name: "indexed", k: kA}, {name: "scan-only", k: kB}}
			indexed := 0
			step := 0
			run := func(op string, do func(s *dirIndexSide) string) string {
				t.Helper()
				if strings.HasPrefix(op, "lookup") || strings.HasPrefix(op, "create") || strings.HasPrefix(op, "unlink") {
					if len(kA.FS.dirIndex) > 0 {
						indexed++
					}
				}
				var results [2]string
				for i, s := range sides {
					if i == 1 {
						clear(s.k.FS.dirIndex)
					}
					results[i] = do(s)
				}
				if results[0] != results[1] {
					t.Fatalf("step %d %s: indexed kernel returned %q, scan-only %q", step, op, results[0], results[1])
				}
				if la, lb := kA.M.Clock.Ledger(), kB.M.Clock.Ledger(); la != lb {
					t.Fatalf("step %d %s: ledgers differ\n indexed %v\nscan-only %v", step, op, la, lb)
				}
				ha, ma, wa := kA.FS.cache.Stats()
				hb, mb, wb := kB.FS.cache.Stats()
				if ha != hb || ma != mb || wa != wb {
					t.Fatalf("step %d %s: buffer cache %d/%d/%d, scan-only %d/%d/%d", step, op, ha, ma, wa, hb, mb, wb)
				}
				if !slices.Equal(lruOrder(kA.FS.cache), lruOrder(kB.FS.cache)) {
					t.Fatalf("step %d %s: LRU orders differ", step, op)
				}
				for _, s := range sides {
					checkDirIndexes(t, step, op, s.name, s.k.FS)
				}
				step++
				return results[0]
			}
			fsCall := func(kind, path string) string {
				return run(kind+" "+path, func(s *dirIndexSide) string {
					fs := s.k.FS
					var ino uint32
					var err error
					switch kind {
					case "create":
						ino, err = fs.Create(path)
					case "mkdir":
						ino, err = fs.Mkdir(path)
					case "lookup":
						ino, err = fs.Lookup(path)
					case "unlink":
						err = fs.Unlink(path, false)
					case "rmdir":
						err = fs.Unlink(path, true)
					}
					return fmt.Sprint(ino, err)
				})
			}
			clearNames := func() {
				run("clear name cache", func(s *dirIndexSide) string {
					clear(s.k.FS.namecache)
					return ""
				})
			}
			capture := func() {
				run("capture", func(s *dirIndexSide) string {
					var err error
					if s.ms, err = s.k.M.CaptureSnap(); err != nil {
						t.Fatal(err)
					}
					if s.ks, err = s.k.CaptureKernelSnap(); err != nil {
						t.Fatal(err)
					}
					return ""
				})
			}
			restore := func() {
				run("restore", func(s *dirIndexSide) string {
					if err := s.k.M.ApplySnap(s.ms, false); err != nil {
						t.Fatal(err)
					}
					if err := s.k.ApplyKernelSnap(s.ks); err != nil {
						t.Fatal(err)
					}
					return ""
				})
			}
			rng := rand.New(rand.NewSource(seed))
			randomPath := func() string {
				return dirs[rng.Intn(len(dirs))] + "/" + pool[rng.Intn(len(pool))]
			}

			for _, d := range dirs[1:] {
				fsCall("mkdir", d)
			}
			var big uint32
			if _, err := fmt.Sscan(fsCall("lookup", "/big"), &big); err != nil {
				t.Fatal(err)
			}
			// Grow /big past its direct blocks, unlinking every tenth
			// name and looking names up along the way.
			for i := 0; i < 760; i++ {
				fsCall("create", fmt.Sprintf("/big/g%03d", i))
				if i%10 == 9 {
					fsCall("unlink", fmt.Sprintf("/big/g%03d", rng.Intn(i+1)))
				}
				if i%5 == 0 {
					fsCall("lookup", fmt.Sprintf("/big/g%03d", rng.Intn(i+40)))
				}
				if i%97 == 0 {
					clearNames()
				}
				if i == 300 {
					capture()
				}
			}
			blk, off := kA.FS.inodeLoc(big)
			if slots := getU64(peekBlock(kA.FS, blk)[off+8:]) / direntSize; slots <= ndirect*direntsPerBlk {
				t.Fatalf("/big has %d slots, none past its direct blocks", slots)
			}
			for i := 0; i < 900; i++ {
				switch r := rng.Intn(100); {
				case r < 30:
					fsCall("create", randomPath())
				case r < 48:
					fsCall("unlink", randomPath())
				case r < 80:
					fsCall("lookup", randomPath())
				case r < 84:
					fsCall("lookup", fmt.Sprintf("/big/g%03d", rng.Intn(800)))
				case r < 87:
					// Empty /d1/sub and remove it, or make it again.
					if res := fsCall("lookup", "/d1/sub"); !strings.HasSuffix(res, ErrNotFound.Error()) {
						for _, n := range pool {
							fsCall("unlink", "/d1/sub/"+n)
						}
						fsCall("rmdir", "/d1/sub")
					} else {
						fsCall("mkdir", "/d1/sub")
					}
				case r < 89:
					fsCall("rmdir", randomPath())
				case r < 94:
					clearNames()
				case r < 97:
					capture()
				default:
					restore()
				}
			}
			if indexed < 500 {
				t.Errorf("only %d operations ran with an index present", indexed)
			}
		})
	}
}

// TestDirIndexCraftedNameCache: a name cache that disagrees with the
// directory, as one restored from a crafted image can, never leaves an
// index that differs from the blocks. A stale negative entry lets
// Create write a second entry with a live name, and a stale slot makes
// unlink clear another name's entry; either drops the directory's
// index, and a scan that passes a repeated name builds none.
func TestDirIndexCraftedNameCache(t *testing.T) {
	_, fs := bootFS(t)
	x, err := fs.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/y"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.dirIndex[RootIno]; !ok {
		t.Fatal("the root directory has no index")
	}
	fs.namecache[nckey{RootIno, "x"}] = ncval{}
	if _, err := fs.Create("/x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.dirIndex[RootIno]; ok {
		t.Error("the root keeps its index with \"x\" in it twice")
	}
	clear(fs.namecache)
	if _, err := fs.Lookup("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup /missing: %v", err)
	}
	if _, ok := fs.dirIndex[RootIno]; ok {
		t.Error("a scan past \"x\" twice built an index")
	}
	if got, err := fs.Lookup("/x"); err != nil || got != x {
		t.Errorf("lookup /x = %d, %v; want the first entry's inode %d", got, err, x)
	}
	checkDirIndexes(t, 0, "repeated name", "kernel", fs)

	_, fs = bootFS(t)
	for _, n := range []string{"/x", "/y", "/z"} {
		if _, err := fs.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	ny, xSlot := fs.namecache[nckey{RootIno, "y"}], fs.namecache[nckey{RootIno, "x"}].slot
	fs.namecache[nckey{RootIno, "y"}] = ncval{ino: ny.ino, slot: xSlot}
	if err := fs.Unlink("/y", false); err != nil {
		t.Fatal(err)
	}
	checkDirIndexes(t, 1, "unlink through a stale slot", "kernel", fs)
}
