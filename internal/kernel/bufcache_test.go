package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

// bufModel is the buffer cache as the obvious structures: a map of
// cached blocks, the LRU order as a slice (most recent first), the
// counters, and the disk's contents.
type bufModel struct {
	cap                      int
	nblocks                  int
	bufs                     map[int]*modelBuf
	lru                      []int
	disk                     map[int][]byte
	hits, misses, writebacks uint64
}

type modelBuf struct {
	data  []byte
	dirty bool
}

func (m *bufModel) touch(blk int) {
	if i := slices.Index(m.lru, blk); i >= 0 {
		m.lru = slices.Delete(m.lru, i, i+1)
	}
	m.lru = slices.Insert(m.lru, 0, blk)
}

func (m *bufModel) writeback(blk int) {
	if b := m.bufs[blk]; b.dirty {
		m.writebacks++
		m.disk[blk] = bytes.Clone(b.data)
		b.dirty = false
	}
}

// get is BufCache.get: a hit moves the block to the head; a miss
// evicts from the tail until there is room, then reads the block, or
// fails when it is outside the disk. Zero misses the same way but
// reads nothing.
func (m *bufModel) get(blk int, read bool) (*modelBuf, bool) {
	if b, ok := m.bufs[blk]; ok {
		m.hits++
		m.touch(blk)
		return b, true
	}
	m.misses++
	for len(m.bufs) >= m.cap {
		victim := m.lru[len(m.lru)-1]
		m.writeback(victim)
		delete(m.bufs, victim)
		m.lru = m.lru[:len(m.lru)-1]
	}
	if blk < 0 || blk >= m.nblocks {
		return nil, false
	}
	b := &modelBuf{data: make([]byte, hw.BlockSize)}
	if read {
		copy(b.data, m.disk[blk])
	}
	m.bufs[blk] = b
	m.touch(blk)
	return b, true
}

func (m *bufModel) clone() *bufModel {
	c := *m
	c.bufs = make(map[int]*modelBuf, len(m.bufs))
	for blk, b := range m.bufs {
		c.bufs[blk] = &modelBuf{data: bytes.Clone(b.data), dirty: b.dirty}
	}
	c.lru = slices.Clone(m.lru)
	return &c
}

// checkBufCache compares c with the model: counters, the LRU list in
// both directions, each buffer's bytes and dirty bit, the block index,
// and the disk.
func checkBufCache(t *testing.T, step int, op string, c *BufCache, m *bufModel, disk *hw.Disk) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d %s: %s", step, op, fmt.Sprintf(format, args...))
	}
	if h, mi, w := c.Stats(); h != m.hits || mi != m.misses || w != m.writebacks {
		fail("Stats() = %d/%d/%d, model %d/%d/%d", h, mi, w, m.hits, m.misses, m.writebacks)
	}
	var order []int
	var prev *buf
	for b := c.head; b != nil; b = b.next {
		if b.prev != prev {
			fail("block %d's prev link is broken", b.blk)
		}
		order = append(order, b.blk)
		prev = b
	}
	if c.tail != prev {
		fail("tail is not the list's last buffer")
	}
	if !slices.Equal(order, m.lru) {
		fail("LRU order %v, model %v", order, m.lru)
	}
	if len(c.blocks) > m.nblocks {
		fail("block index has %d slots for a %d-block disk", len(c.blocks), m.nblocks)
	}
	indexed := 0
	for blk, b := range c.blocks {
		if b == nil {
			continue
		}
		indexed++
		mb, ok := m.bufs[blk]
		if !ok || b.blk != blk {
			fail("index slot %d holds block %d; model caches it: %v", blk, b.blk, ok)
		}
		if !bytes.Equal(b.data, mb.data) || b.dirty != mb.dirty {
			fail("block %d: dirty=%v, model dirty=%v, bytes equal %v", blk, b.dirty, mb.dirty, bytes.Equal(b.data, mb.data))
		}
	}
	if indexed != len(m.bufs) || c.n != len(m.bufs) {
		fail("index holds %d buffers and counts %d, model caches %d", indexed, c.n, len(m.bufs))
	}
	for blk, want := range m.disk {
		if got := disk.PeekBlock(blk); !bytes.Equal(got, want) {
			fail("disk block %d differs from the model", blk)
		}
	}
}

// TestBufCacheMatchesModel drives random get, Read, Write,
// WritePartial, Zero, Sync, DropClean and capture→apply calls against
// bufModel through a 4-block cache, over blocks that include the
// disk's first and last and two numbers just outside it.
func TestBufCacheMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			// The kernel's own file system caches its metadata in its own
			// cache and writes none of it back while the test runs, so the
			// disk starts zero for the cache under test.
			m := hw.NewMachine(hw.MachineConfig{MemFrames: 1024, DiskBlocks: 256, Seed: 1})
			hal, err := core.NewNativeHAL(m)
			if err != nil {
				t.Fatal(err)
			}
			k, err := Boot(hal)
			if err != nil {
				t.Fatal(err)
			}
			nblocks := m.Disk.NumBlocks()
			c := NewBufCache(k, m.Disk, 4)
			model := &bufModel{cap: 4, nblocks: nblocks, bufs: map[int]*modelBuf{}, disk: map[int][]byte{}}
			pool := []int{0, 1, 2, 3, 5, 8, 13, 40, 130, nblocks - 2, nblocks - 1, nblocks, -1}
			var savedImg BufCacheSnap
			var savedModel *bufModel
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 3000; step++ {
				blk := pool[rng.Intn(len(pool))]
				var op string
				var gotErr, wantErr bool
				switch r := rng.Intn(100); {
				case r < 20:
					op = fmt.Sprintf("get(%d)", blk)
					_, err := c.get(blk)
					_, ok := model.get(blk, true)
					gotErr, wantErr = err != nil, !ok
				case r < 35:
					op = fmt.Sprintf("Read(%d)", blk)
					got, err := c.Read(blk)
					b, ok := model.get(blk, true)
					gotErr, wantErr = err != nil, !ok
					if ok && err == nil && !bytes.Equal(got, b.data) {
						t.Fatalf("step %d %s: bytes differ from the model", step, op)
					}
				case r < 50:
					data := make([]byte, rng.Intn(hw.BlockSize+1))
					rng.Read(data)
					op = fmt.Sprintf("Write(%d, %d bytes)", blk, len(data))
					err := c.Write(blk, data)
					b, ok := model.get(blk, true)
					if ok {
						clear(b.data)
						copy(b.data, data)
						b.dirty = true
					}
					gotErr, wantErr = err != nil, !ok
				case r < 62:
					off := rng.Intn(hw.BlockSize)
					data := make([]byte, rng.Intn(hw.BlockSize-off+1))
					rng.Read(data)
					op = fmt.Sprintf("WritePartial(%d, %d, %d bytes)", blk, off, len(data))
					err := c.WritePartial(blk, off, data)
					b, ok := model.get(blk, true)
					if ok {
						copy(b.data[off:], data)
						b.dirty = true
					}
					gotErr, wantErr = err != nil, !ok
				case r < 75:
					op = fmt.Sprintf("Zero(%d)", blk)
					err := c.Zero(blk)
					b, ok := model.get(blk, false)
					if ok {
						clear(b.data)
						b.dirty = true
					}
					gotErr, wantErr = err != nil, !ok
				case r < 82:
					op = "Sync"
					gotErr = c.Sync() != nil
					for blk := range model.bufs {
						model.writeback(blk)
					}
				case r < 86:
					op = "DropClean"
					gotErr = c.DropClean() != nil
					for blk := range model.bufs {
						model.writeback(blk)
					}
					clear(model.bufs)
					model.lru = nil
				case r < 93:
					op = "capture"
					savedImg, savedModel = c.captureSnap(), model.clone()
				default:
					if savedModel == nil {
						continue
					}
					op = "apply"
					if err := c.checkSnap(savedImg); err != nil {
						t.Fatalf("step %d: a captured image is refused: %v", step, err)
					}
					c.applySnap(savedImg)
					restored := savedModel.clone()
					restored.disk = model.disk
					model = restored
				}
				if gotErr != wantErr {
					t.Fatalf("step %d %s: error %v, model expects one: %v", step, op, gotErr, wantErr)
				}
				checkBufCache(t, step, op, c, model, m.Disk)
			}
		})
	}
}
