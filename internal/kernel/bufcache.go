package kernel

import (
	"fmt"

	"repro/internal/hw"
)

// BufCache is the buffer cache between the file system and the disk:
// fixed capacity, LRU eviction, write-back of dirty blocks (buffered
// I/O, the configuration Postmark ran with in the paper).
type BufCache struct {
	k    *Kernel
	disk *hw.Disk
	cap  int

	// blocks indexes the cached buffers by block number, nil where a
	// block is not cached. It grows to cover the highest block cached
	// and never past the disk: get inserts a block only after the disk
	// has read it, and Zero refuses a block outside the disk. n counts
	// the cached buffers.
	blocks []*buf
	n      int
	// lru is a doubly-linked list, most-recently-used at head.
	head, tail *buf

	hits, misses, writebacks uint64
}

type buf struct {
	blk        int
	data       []byte
	dirty      bool
	prev, next *buf
}

// NewBufCache creates a cache of capBlocks blocks.
func NewBufCache(k *Kernel, disk *hw.Disk, capBlocks int) *BufCache {
	return &BufCache{k: k, disk: disk, cap: capBlocks}
}

// Stats returns hit/miss/writeback counters.
func (c *BufCache) Stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}

// lookup returns blk's cached buffer, or nil.
func (c *BufCache) lookup(blk int) *buf {
	if uint(blk) < uint(len(c.blocks)) {
		return c.blocks[blk]
	}
	return nil
}

// index records b under its block number, doubling the index up to the
// disk's size when b lies past its end. b.blk must be on the disk.
func (c *BufCache) index(b *buf) {
	if b.blk >= len(c.blocks) {
		grown := make([]*buf, min(max(b.blk+1, 2*len(c.blocks)), c.disk.NumBlocks()))
		copy(grown, c.blocks)
		c.blocks = grown
	}
	c.blocks[b.blk] = b
	c.n++
}

// reset empties the cache, keeping the index's storage.
func (c *BufCache) reset() {
	clear(c.blocks)
	c.n = 0
	c.head, c.tail = nil, nil
}

func (c *BufCache) touch(b *buf) {
	if c.head == b {
		return
	}
	// unlink
	if b.prev != nil {
		b.prev.next = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	if c.tail == b {
		c.tail = b.prev
	}
	// push front
	b.prev = nil
	b.next = c.head
	if c.head != nil {
		c.head.prev = b
	}
	c.head = b
	if c.tail == nil {
		c.tail = b
	}
}

func (c *BufCache) evictIfFull() error {
	for c.n >= c.cap {
		victim := c.tail
		if victim == nil {
			return fmt.Errorf("kernel: buffer cache corrupt (full but no tail)")
		}
		if victim.dirty {
			c.writebacks++
			if err := c.disk.WriteBlock(victim.blk, victim.data); err != nil {
				return err
			}
		}
		if victim.prev != nil {
			victim.prev.next = nil
		}
		c.tail = victim.prev
		if c.head == victim {
			c.head = nil
		}
		c.blocks[victim.blk] = nil
		c.n--
	}
	return nil
}

// get returns the cached buffer for blk, reading it from disk on a
// miss.
func (c *BufCache) get(blk int) (*buf, error) {
	if b := c.lookup(blk); b != nil {
		c.hits++
		c.k.HAL.KAccess(workBufCacheHit)
		c.touch(b)
		return b, nil
	}
	c.misses++
	c.k.HAL.KAccess(workBufCacheMiss)
	if err := c.evictIfFull(); err != nil {
		return nil, err
	}
	data, err := c.disk.ReadBlock(blk)
	if err != nil {
		return nil, err
	}
	b := &buf{blk: blk, data: data}
	c.index(b)
	c.touch(b)
	return b, nil
}

// Read returns (a copy of) the block's contents.
func (c *BufCache) Read(blk int) ([]byte, error) {
	b, err := c.get(blk)
	if err != nil {
		return nil, err
	}
	out := make([]byte, hw.BlockSize)
	copy(out, b.data)
	return out, nil
}

// ReadPartial copies block bytes [off, off+n) into dst.
func (c *BufCache) ReadPartial(blk int, off, n int, dst []byte) error {
	b, err := c.get(blk)
	if err != nil {
		return err
	}
	copy(dst, b.data[off:off+n])
	return nil
}

// Write replaces the block's contents (write-back).
func (c *BufCache) Write(blk int, data []byte) error {
	b, err := c.get(blk)
	if err != nil {
		return err
	}
	copy(b.data, data)
	for i := len(data); i < hw.BlockSize; i++ {
		b.data[i] = 0
	}
	b.dirty = true
	return nil
}

// WritePartial updates bytes [off, off+len(src)) of the block.
func (c *BufCache) WritePartial(blk int, off int, src []byte) error {
	b, err := c.get(blk)
	if err != nil {
		return err
	}
	copy(b.data[off:], src)
	b.dirty = true
	return nil
}

// Zero clears a block in cache (fresh allocation; avoids a disk read
// for blocks whose old contents are dead). A block outside the disk is
// refused where get's disk read would refuse it.
func (c *BufCache) Zero(blk int) error {
	if b := c.lookup(blk); b != nil {
		c.hits++
		for i := range b.data {
			b.data[i] = 0
		}
		b.dirty = true
		c.touch(b)
		return nil
	}
	c.misses++
	c.k.HAL.KAccess(workBufCacheMiss)
	if err := c.evictIfFull(); err != nil {
		return err
	}
	if blk < 0 || blk >= c.disk.NumBlocks() {
		return fmt.Errorf("kernel: zero of block %d outside the %d-block disk", blk, c.disk.NumBlocks())
	}
	b := &buf{blk: blk, data: make([]byte, hw.BlockSize), dirty: true}
	c.index(b)
	c.touch(b)
	return nil
}

// Sync flushes every dirty block to disk, in LRU order from the head.
func (c *BufCache) Sync() error {
	for b := c.head; b != nil; b = b.next {
		if b.dirty {
			c.writebacks++
			if err := c.disk.WriteBlock(b.blk, b.data); err != nil {
				return err
			}
			b.dirty = false
		}
	}
	return nil
}

// DropClean evicts every clean block from the cache (the experiment
// harness's equivalent of unmounting or dropping caches so reads hit
// the disk again). Dirty blocks are written back first.
func (c *BufCache) DropClean() error {
	if err := c.Sync(); err != nil {
		return err
	}
	c.reset()
	return nil
}
