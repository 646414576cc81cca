package kernel

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/hw"
)

// This file is the disk-backed UFS-like file system: superblock, inode
// and block bitmaps, a fixed inode table, 12 direct + 1 indirect block
// pointers per inode, and 64-byte directory entries. All metadata and
// data I/O flows through the buffer cache.

// On-disk geometry.
const (
	fsMagic        = 0x56474653 // "VGFS"
	inodeSize      = 64
	inodesPerBlock = hw.BlockSize / inodeSize
	ndirect        = 10 // 10 direct pointers fit the 64-byte inode
	nindirect      = hw.BlockSize / 4
	direntSize     = 64
	direntsPerBlk  = hw.BlockSize / direntSize
	maxNameLen     = 56
	// MaxFileSize is the largest file the inode geometry supports.
	MaxFileSize = (ndirect + nindirect) * hw.BlockSize
)

// Inode modes.
const (
	modeFree = 0
	modeFile = 1
	modeDir  = 2
)

// RootIno is the root directory's inode number.
const RootIno uint32 = 1

// Errors returned by the file system.
var (
	ErrNotFound = errors.New("ufs: no such file or directory")
	ErrExists   = errors.New("ufs: file exists")
	ErrIsDir    = errors.New("ufs: is a directory")
	ErrNotDir   = errors.New("ufs: not a directory")
	ErrNotEmpty = errors.New("ufs: directory not empty")
	ErrNoSpace  = errors.New("ufs: out of space")
	ErrTooBig   = errors.New("ufs: file too large")
	ErrBadName  = errors.New("ufs: bad file name")
)

// inode is the in-memory image of an on-disk inode.
type inode struct {
	Mode     uint16
	Nlink    uint16
	Size     int64
	Direct   [ndirect]uint32
	Indirect uint32
}

// Stat describes a file for the stat syscall.
type FileStat struct {
	Ino   uint32
	Size  int64
	IsDir bool
	Nlink int
}

// FS is a mounted file system.
type FS struct {
	k     *Kernel
	cache *BufCache

	nblocks     int
	ninodes     int
	inodeBitmap int // block index
	blockBitmap int
	inodeStart  int
	dataStart   int

	// namecache maps (directory inode, name) to (inode, slot) — the
	// vnode name cache every BSD kernel keeps, making repeated lookups
	// O(1) instead of a directory scan.
	namecache map[nckey]ncval
	// freeSlotHint remembers the lowest possibly-free dirent slot per
	// directory so inserts do not rescan from the start.
	freeSlotHint map[uint32]int
	// dirIndex maps a directory's live names to their slots, for each
	// directory a lookup has scanned to the end without a match (see
	// dirLookup). Host-only: never charged, never in an image.
	dirIndex map[uint32]map[string]int
	// blockRotor/inodeRotor remember where the last bitmap search
	// ended (FFS-style rotor) so allocation stays O(1) amortized.
	blockRotor int
	inodeRotor int
}

type nckey struct {
	dir  uint32
	name string
}

type ncval struct {
	ino  uint32
	slot int
}

// Mkfs formats the machine's disk and mounts a fresh file system with a
// root directory. The inode table gets 64 inodes (one block) per 8
// disk blocks, up to 8192 inodes from 1024 blocks on; a disk with no
// block left for data is refused.
func Mkfs(k *Kernel, disk *hw.Disk) (*FS, error) {
	nblocks := disk.NumBlocks()
	fs := &FS{
		k:            k,
		cache:        NewBufCache(k, disk, 2048),
		nblocks:      nblocks,
		ninodes:      min(8192, inodesPerBlock*max(1, nblocks/8)),
		namecache:    make(map[nckey]ncval),
		freeSlotHint: make(map[uint32]int),
		dirIndex:     make(map[uint32]map[string]int),
	}
	fs.inodeBitmap = 1
	fs.blockBitmap = 2
	// Block bitmap: 1 block covers 32768 blocks.
	nbb := (fs.nblocks + hw.BlockSize*8 - 1) / (hw.BlockSize * 8)
	fs.inodeStart = fs.blockBitmap + nbb
	fs.dataStart = fs.inodeStart + fs.ninodes/inodesPerBlock
	if fs.dataStart >= fs.nblocks {
		return nil, fmt.Errorf("ufs: a %d-block disk leaves no data block after %d metadata blocks", fs.nblocks, fs.dataStart)
	}
	for b := 0; b < fs.dataStart; b++ {
		if err := fs.cache.Zero(b); err != nil {
			return nil, err
		}
	}
	// Superblock.
	sb := make([]byte, hw.BlockSize)
	putU32(sb[0:], fsMagic)
	putU32(sb[4:], uint32(fs.nblocks))
	putU32(sb[8:], uint32(fs.ninodes))
	putU32(sb[12:], uint32(fs.dataStart))
	if err := fs.cache.Write(0, sb); err != nil {
		return nil, err
	}
	// Reserve inode 0 (invalid) and create the root directory at
	// inode 1.
	if err := fs.bitmapSet(fs.inodeBitmap, 0, true); err != nil {
		return nil, err
	}
	if err := fs.bitmapSet(fs.inodeBitmap, 1, true); err != nil {
		return nil, err
	}
	root := &inode{Mode: modeDir, Nlink: 1}
	if err := fs.writeInode(RootIno, root); err != nil {
		return nil, err
	}
	// Mark metadata blocks used in the block bitmap.
	for b := 0; b < fs.dataStart; b++ {
		if err := fs.bitmapSet(fs.blockBitmap, b, true); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// Cache exposes the buffer cache (for sync and statistics).
func (fs *FS) Cache() *BufCache { return fs.cache }

// --- bitmaps ------------------------------------------------------------

func (fs *FS) bitmapSet(bitmapBlk, idx int, val bool) error {
	blk := bitmapBlk + idx/(hw.BlockSize*8)
	bit := idx % (hw.BlockSize * 8)
	b, err := fs.cache.get(blk)
	if err != nil {
		return err
	}
	if val {
		b.data[bit/8] |= 1 << (bit % 8)
	} else {
		b.data[bit/8] &^= 1 << (bit % 8)
	}
	b.dirty = true
	return nil
}

func (fs *FS) bitmapGet(bitmapBlk, idx int) (bool, error) {
	blk := bitmapBlk + idx/(hw.BlockSize*8)
	bit := idx % (hw.BlockSize * 8)
	b, err := fs.cache.get(blk)
	if err != nil {
		return false, err
	}
	return b.data[bit/8]&(1<<(bit%8)) != 0, nil
}

func (fs *FS) bitmapFindFree(bitmapBlk, limit, start int) (int, error) {
	if start >= limit || start < 0 {
		start = 0
	}
	// Scan [start, limit) then wrap to [0, start).
	for pass := 0; pass < 2; pass++ {
		lo, hi := start, limit
		if pass == 1 {
			lo, hi = 0, start
		}
		for idx := lo; idx < hi; {
			blk := bitmapBlk + idx/(hw.BlockSize*8)
			b, err := fs.cache.get(blk)
			if err != nil {
				return -1, err
			}
			bit := idx % (hw.BlockSize * 8)
			byt := b.data[bit/8]
			if byt == 0xff && bit%8 == 0 && idx+8 <= hi {
				idx += 8
				continue
			}
			if byt&(1<<(bit%8)) == 0 {
				return idx, nil
			}
			idx++
		}
	}
	return -1, ErrNoSpace
}

// allocBlock allocates a data block (zeroed in cache).
func (fs *FS) allocBlock() (uint32, error) {
	idx, err := fs.bitmapFindFree(fs.blockBitmap, fs.nblocks, fs.blockRotor)
	if err != nil {
		return 0, err
	}
	fs.blockRotor = idx + 1
	if err := fs.bitmapSet(fs.blockBitmap, idx, true); err != nil {
		return 0, err
	}
	if err := fs.cache.Zero(idx); err != nil {
		return 0, err
	}
	return uint32(idx), nil
}

func (fs *FS) freeBlock(blk uint32) error {
	if int(blk) < fs.blockRotor {
		fs.blockRotor = int(blk)
	}
	return fs.bitmapSet(fs.blockBitmap, int(blk), false)
}

// allocInode allocates an inode number.
func (fs *FS) allocInode() (uint32, error) {
	idx, err := fs.bitmapFindFree(fs.inodeBitmap, fs.ninodes, fs.inodeRotor)
	if err != nil {
		return 0, err
	}
	fs.inodeRotor = idx + 1
	if err := fs.bitmapSet(fs.inodeBitmap, idx, true); err != nil {
		return 0, err
	}
	return uint32(idx), nil
}

func (fs *FS) freeInode(ino uint32) error {
	if int(ino) < fs.inodeRotor {
		fs.inodeRotor = int(ino)
	}
	return fs.bitmapSet(fs.inodeBitmap, int(ino), false)
}

// --- inode I/O -----------------------------------------------------------

func (fs *FS) inodeLoc(ino uint32) (blk, off int) {
	return fs.inodeStart + int(ino)/inodesPerBlock, (int(ino) % inodesPerBlock) * inodeSize
}

func (fs *FS) readInode(ino uint32) (inode, error) {
	if ino == 0 || int(ino) >= fs.ninodes {
		return inode{}, fmt.Errorf("ufs: bad inode %d", ino)
	}
	blk, off := fs.inodeLoc(ino)
	b, err := fs.cache.get(blk)
	if err != nil {
		return inode{}, err
	}
	d := b.data[off : off+inodeSize]
	in := inode{
		Mode:  uint16(d[0]) | uint16(d[1])<<8,
		Nlink: uint16(d[2]) | uint16(d[3])<<8,
		Size:  int64(getU64(d[8:])),
	}
	for i := 0; i < ndirect; i++ {
		in.Direct[i] = getU32(d[16+4*i:])
	}
	in.Indirect = getU32(d[16+4*ndirect:])
	return in, nil
}

func (fs *FS) writeInode(ino uint32, in *inode) error {
	blk, off := fs.inodeLoc(ino)
	b, err := fs.cache.get(blk)
	if err != nil {
		return err
	}
	d := b.data[off : off+inodeSize]
	d[0], d[1] = byte(in.Mode), byte(in.Mode>>8)
	d[2], d[3] = byte(in.Nlink), byte(in.Nlink>>8)
	putU64(d[8:], uint64(in.Size))
	for i := 0; i < ndirect; i++ {
		putU32(d[16+4*i:], in.Direct[i])
	}
	putU32(d[16+4*ndirect:], in.Indirect)
	b.dirty = true
	return nil
}

// blockOf maps a file block index to a disk block, allocating if
// requested.
func (fs *FS) blockOf(ino uint32, in *inode, fileBlk int, alloc bool) (uint32, error) {
	if fileBlk < ndirect {
		if in.Direct[fileBlk] == 0 {
			if !alloc {
				return 0, nil
			}
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			in.Direct[fileBlk] = nb
			if err := fs.writeInode(ino, in); err != nil {
				return 0, err
			}
		}
		return in.Direct[fileBlk], nil
	}
	idx := fileBlk - ndirect
	if idx >= nindirect {
		return 0, ErrTooBig
	}
	if in.Indirect == 0 {
		if !alloc {
			return 0, nil
		}
		nb, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		in.Indirect = nb
		if err := fs.writeInode(ino, in); err != nil {
			return 0, err
		}
	}
	ib, err := fs.cache.get(int(in.Indirect))
	if err != nil {
		return 0, err
	}
	blk := getU32(ib.data[4*idx:])
	if blk == 0 && alloc {
		nb, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		// Re-fetch: allocBlock may have evicted the indirect block.
		ib, err = fs.cache.get(int(in.Indirect))
		if err != nil {
			return 0, err
		}
		putU32(ib.data[4*idx:], nb)
		ib.dirty = true
		blk = nb
	}
	return blk, nil
}

// --- file data I/O --------------------------------------------------------

// ReadAt reads up to len(b) bytes of file ino at offset off into b.
// The mmap fault path uses it; descriptor reads use read.
func (fs *FS) ReadAt(ino uint32, b []byte, off int64) (int, error) {
	in, n, ok, err := fs.readExtent(ino, len(b), off)
	if !ok {
		return 0, err
	}
	return fs.readBlocks(ino, &in, b[:n], off)
}

// read returns up to n bytes of file ino at offset off as a view of
// the kernel's read scratch. The scratch grows only to the length
// clamped to the file size, so n alone never sizes a host buffer.
func (fs *FS) read(ino uint32, n int, off int64) ([]byte, error) {
	in, n, ok, err := fs.readExtent(ino, n, off)
	if !ok {
		return nil, err
	}
	b := fs.k.readScratch(n)
	got, err := fs.readBlocks(ino, &in, b, off)
	return b[:got], err
}

// readExtent loads ino and clamps an n-byte read at off to the file
// size. ok is false when there is nothing to read: an error, or off at
// or past end of file. A zero-length read inside the file is ok, and
// still pays readBlocks' per-page charge.
func (fs *FS) readExtent(ino uint32, n int, off int64) (inode, int, bool, error) {
	in, err := fs.readInode(ino)
	if err != nil {
		return inode{}, 0, false, err
	}
	if in.Mode == modeFree {
		return inode{}, 0, false, ErrNotFound
	}
	if off >= in.Size {
		return inode{}, 0, false, nil
	}
	if int64(n) > in.Size-off {
		n = int(in.Size - off)
	}
	return in, n, true, nil
}

// readBlocks fills b with file data from off, block by block through
// the buffer cache (holes read as zeros).
func (fs *FS) readBlocks(ino uint32, in *inode, b []byte, off int64) (int, error) {
	n := len(b)
	fs.k.HAL.KAccess(workReadWritePerPage * (n/hw.BlockSize + 1))
	read := 0
	for read < n {
		fb := int((off + int64(read)) / hw.BlockSize)
		bo := int((off + int64(read)) % hw.BlockSize)
		chunk := hw.BlockSize - bo
		if chunk > n-read {
			chunk = n - read
		}
		blk, err := fs.blockOf(ino, in, fb, false)
		if err != nil {
			return read, err
		}
		if blk == 0 {
			// Hole: zeros.
			clear(b[read : read+chunk])
		} else if err := fs.cache.ReadPartial(int(blk), bo, chunk, b[read:read+chunk]); err != nil {
			return read, err
		}
		read += chunk
	}
	return read, nil
}

// WriteAt writes b at offset off of a file, growing the file as
// needed. A directory is refused with ErrIsDir: only dirInsert and
// dirRemove write directory entries, which keeps every directory index
// equal to its directory's blocks.
func (fs *FS) WriteAt(ino uint32, b []byte, off int64) (int, error) {
	return fs.writeAt(ino, false, b, off)
}

// writeAt writes b at offset off of inode ino, which must be a
// directory when dir is set and must not be one otherwise.
func (fs *FS) writeAt(ino uint32, dir bool, b []byte, off int64) (int, error) {
	in, err := fs.readInode(ino)
	if err != nil {
		return 0, err
	}
	if in.Mode == modeFree {
		return 0, ErrNotFound
	}
	if isDir := in.Mode == modeDir; isDir != dir {
		if isDir {
			return 0, ErrIsDir
		}
		return 0, ErrNotDir
	}
	if off+int64(len(b)) > MaxFileSize {
		return 0, ErrTooBig
	}
	fs.k.HAL.KAccess(workReadWritePerPage * (len(b)/hw.BlockSize + 1))
	written := 0
	for written < len(b) {
		fb := int((off + int64(written)) / hw.BlockSize)
		bo := int((off + int64(written)) % hw.BlockSize)
		chunk := hw.BlockSize - bo
		if chunk > len(b)-written {
			chunk = len(b) - written
		}
		blk, err := fs.blockOf(ino, &in, fb, true)
		if err != nil {
			return written, err
		}
		if err := fs.cache.WritePartial(int(blk), bo, b[written:written+chunk]); err != nil {
			return written, err
		}
		written += chunk
	}
	if off+int64(written) > in.Size {
		in.Size = off + int64(written)
		if err := fs.writeInode(ino, &in); err != nil {
			return written, err
		}
	}
	return written, nil
}

// truncate frees all blocks of an inode and zeroes its size.
func (fs *FS) truncate(ino uint32, in *inode) error {
	for i := 0; i < ndirect; i++ {
		if in.Direct[i] != 0 {
			if err := fs.freeBlock(in.Direct[i]); err != nil {
				return err
			}
			in.Direct[i] = 0
		}
	}
	if in.Indirect != 0 {
		ib, err := fs.cache.get(int(in.Indirect))
		if err != nil {
			return err
		}
		for i := 0; i < nindirect; i++ {
			blk := getU32(ib.data[4*i:])
			if blk != 0 {
				if err := fs.freeBlock(blk); err != nil {
					return err
				}
			}
		}
		if err := fs.freeBlock(in.Indirect); err != nil {
			return err
		}
		in.Indirect = 0
	}
	in.Size = 0
	return fs.writeInode(ino, in)
}

// --- directories -----------------------------------------------------------

// dirScan reads a directory block by block through the buffer cache
// (64 entries per block), calling fn with each block's first slot index
// and its slot bytes, cut at the directory's size; fn returning true
// stops the scan. The bytes are a view of the cached block, valid
// until the next buffer-cache call. The cost is per block, not per
// entry — the same complexity class as UFS dirhash probing.
func (fs *FS) dirScan(dirIno uint32, din *inode, fn func(first int, slots []byte) bool) error {
	nslots := int(din.Size) / direntSize
	for fb := 0; fb*direntsPerBlk < nslots; fb++ {
		fs.k.HAL.KAccess(workBufCacheHit)
		blk, err := fs.blockOf(dirIno, din, fb, false)
		if err != nil {
			return err
		}
		if blk == 0 {
			continue // hole: all-free slots
		}
		b, err := fs.cache.get(int(blk))
		if err != nil {
			return err
		}
		first := fb * direntsPerBlk
		n := min(direntsPerBlk, nslots-first)
		if fn(first, b.data[:n*direntSize]) {
			return nil
		}
	}
	return nil
}

// direntAt decodes slot i of dirScan's slot bytes: the entry's inode
// (0 for a free slot) and its name, a view into the bytes.
func direntAt(slots []byte, i int) (uint32, []byte) {
	d := slots[i*direntSize : (i+1)*direntSize]
	return getU32(d), d[8 : 8+min(int(d[4]), maxNameLen)]
}

// dirLookup finds name in the directory.
//
// A name-cache miss walks the directory's blocks. Without an index the
// walk compares each live name with name; a walk that matches nothing
// has passed every live name, and leaves them behind as the
// directory's index. With an index the walk compares nothing: it stops
// at the block of the name's indexed slot, or reads to the end when the
// name is absent. Either way it reads the blocks the compare scan
// would, in the same order, so charges and cache state do not depend
// on the index.
func (fs *FS) dirLookup(dirIno uint32, name string) (uint32, int, error) {
	din, err := fs.readInode(dirIno)
	if err != nil {
		return 0, -1, err
	}
	if din.Mode != modeDir {
		return 0, -1, ErrNotDir
	}
	fs.k.HAL.KAccess(workNameiPerComponent)
	if v, ok := fs.namecache[nckey{dirIno, name}]; ok {
		if v.ino == 0 {
			return 0, -1, ErrNotFound // cached negative entry
		}
		return v.ino, v.slot, nil
	}
	found := uint32(0)
	slot := -1
	if idx, ok := fs.dirIndex[dirIno]; ok {
		want, ok := idx[name]
		if !ok {
			want = -1
		}
		err = fs.dirScan(dirIno, &din, func(first int, slots []byte) bool {
			if i := want - first; i >= 0 && i*direntSize < len(slots) {
				found, slot = getU32(slots[i*direntSize:]), want
				return true
			}
			return false
		})
	} else {
		// names collects the live names the scan passes. A repeated name
		// drops the collection: such a directory is never indexed.
		names := make(map[string]int)
		err = fs.dirScan(dirIno, &din, func(first int, slots []byte) bool {
			for i := range len(slots) / direntSize {
				ino, nm := direntAt(slots, i)
				if ino == 0 {
					continue
				}
				// The conversion in a comparison does not allocate.
				if string(nm) == name {
					found, slot = ino, first+i
					return true
				}
				if names != nil {
					if _, dup := names[string(nm)]; dup {
						names = nil
					} else {
						names[string(nm)] = first + i
					}
				}
			}
			return false
		})
		if err == nil && found == 0 && names != nil {
			fs.dirIndex[dirIno] = names
		}
	}
	if err != nil {
		return 0, -1, err
	}
	if found == 0 {
		// Cache the negative result (BSD namecache does the same);
		// dirInsert replaces it when the name appears.
		fs.namecache[nckey{dirIno, name}] = ncval{}
		return 0, -1, ErrNotFound
	}
	fs.namecache[nckey{dirIno, name}] = ncval{ino: found, slot: slot}
	return found, slot, nil
}

// dirInsert adds an entry, reusing a free slot if one exists.
func (fs *FS) dirInsert(dirIno uint32, name string, ino uint32) error {
	if len(name) == 0 || len(name) > maxNameLen || strings.Contains(name, "/") {
		return ErrBadName
	}
	din, err := fs.readInode(dirIno)
	if err != nil {
		return err
	}
	slots := int(din.Size) / direntSize
	freeSlot := slots
	for s := fs.freeSlotHint[dirIno]; s < slots; s++ {
		if s%direntsPerBlk == 0 {
			fs.k.HAL.KAccess(workBufCacheHit)
		}
		blk, err := fs.blockOf(dirIno, &din, s/direntsPerBlk, false)
		if err != nil {
			return err
		}
		if blk == 0 {
			freeSlot = s
			break
		}
		b, err := fs.cache.get(int(blk))
		if err != nil {
			return err
		}
		if getU32(b.data[(s%direntsPerBlk)*direntSize:]) == 0 {
			freeSlot = s
			break
		}
	}
	e := make([]byte, direntSize)
	putU32(e[0:], ino)
	e[4] = byte(len(name))
	copy(e[8:], name)
	if _, err := fs.writeAt(dirIno, true, e, int64(freeSlot)*direntSize); err != nil {
		return err
	}
	fs.namecache[nckey{dirIno, name}] = ncval{ino: ino, slot: freeSlot}
	fs.freeSlotHint[dirIno] = freeSlot + 1
	if idx, ok := fs.dirIndex[dirIno]; ok && ino != 0 {
		if _, dup := idx[name]; dup {
			// Only a name cache that hid a live entry from Create (one
			// restored from a crafted image) gets here.
			delete(fs.dirIndex, dirIno)
		} else {
			idx[name] = freeSlot
		}
	}
	return nil
}

// dirRemove clears the entry in the given slot.
func (fs *FS) dirRemove(dirIno uint32, name string, slot int) error {
	e := make([]byte, direntSize)
	if _, err := fs.writeAt(dirIno, true, e, int64(slot)*direntSize); err != nil {
		return err
	}
	delete(fs.namecache, nckey{dirIno, name})
	if slot < fs.freeSlotHint[dirIno] {
		fs.freeSlotHint[dirIno] = slot
	}
	if idx, ok := fs.dirIndex[dirIno]; ok {
		if s, ok := idx[name]; ok && s == slot {
			delete(idx, name)
		} else {
			// The slot came from a name cache that disagrees with the
			// directory (one restored from a crafted image), so it may
			// have held another name.
			delete(fs.dirIndex, dirIno)
		}
	}
	return nil
}

// dirEmpty reports whether the directory has no live entries.
func (fs *FS) dirEmpty(dirIno uint32) (bool, error) {
	din, err := fs.readInode(dirIno)
	if err != nil {
		return false, err
	}
	empty := true
	err = fs.dirScan(dirIno, &din, func(_ int, slots []byte) bool {
		for i := range len(slots) / direntSize {
			if ino, _ := direntAt(slots, i); ino != 0 {
				empty = false
				return true
			}
		}
		return false
	})
	return empty, err
}

// --- path operations ---------------------------------------------------------

// pathComps is how many components a path walk holds on the stack; a
// deeper path spills to the heap.
const pathComps = 16

// splitPath normalizes an absolute path into components, appended to
// comps[:0]: empty components and "." are skipped, and ".." drops the
// previous component (at the root it stays at the root). Callers pass
// a stack array's slice, and the components are substrings of path, so
// a walk of up to pathComps components allocates nothing.
func splitPath(path string, comps []string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, ErrBadName
	}
	comps = comps[:0]
	for rest := path; rest != ""; {
		var c string
		c, rest, _ = strings.Cut(rest, "/")
		switch c {
		case "", ".":
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// walk resolves all but the last component, returning the parent
// directory inode and the final name.
func (fs *FS) walk(path string) (parent uint32, name string, err error) {
	var buf [pathComps]string
	comps, err := splitPath(path, buf[:])
	if err != nil {
		return 0, "", err
	}
	if len(comps) == 0 {
		return 0, "", ErrBadName
	}
	dir := RootIno
	for _, c := range comps[:len(comps)-1] {
		next, _, err := fs.dirLookup(dir, c)
		if err != nil {
			return 0, "", err
		}
		dir = next
	}
	return dir, comps[len(comps)-1], nil
}

// Lookup resolves a path to an inode.
func (fs *FS) Lookup(path string) (uint32, error) {
	var buf [pathComps]string
	comps, err := splitPath(path, buf[:])
	if err != nil {
		return 0, err
	}
	dir := RootIno
	for _, c := range comps {
		next, _, err := fs.dirLookup(dir, c)
		if err != nil {
			return 0, err
		}
		dir = next
	}
	return dir, nil
}

// Create makes a new regular file (error if it exists).
func (fs *FS) Create(path string) (uint32, error) {
	parent, name, err := fs.walk(path)
	if err != nil {
		return 0, err
	}
	if _, _, err := fs.dirLookup(parent, name); err == nil {
		return 0, ErrExists
	} else if !errors.Is(err, ErrNotFound) {
		return 0, err
	}
	fs.k.HAL.KAccess(workCreateFile)
	ino, err := fs.allocInode()
	if err != nil {
		return 0, err
	}
	in := &inode{Mode: modeFile, Nlink: 1}
	if err := fs.writeInode(ino, in); err != nil {
		return 0, err
	}
	if err := fs.dirInsert(parent, name, ino); err != nil {
		return 0, err
	}
	return ino, nil
}

// Mkdir makes a directory.
func (fs *FS) Mkdir(path string) (uint32, error) {
	parent, name, err := fs.walk(path)
	if err != nil {
		return 0, err
	}
	if _, _, err := fs.dirLookup(parent, name); err == nil {
		return 0, ErrExists
	} else if !errors.Is(err, ErrNotFound) {
		return 0, err
	}
	fs.k.HAL.KAccess(workCreateFile)
	ino, err := fs.allocInode()
	if err != nil {
		return 0, err
	}
	in := &inode{Mode: modeDir, Nlink: 1}
	if err := fs.writeInode(ino, in); err != nil {
		return 0, err
	}
	if err := fs.dirInsert(parent, name, ino); err != nil {
		return 0, err
	}
	return ino, nil
}

// Unlink removes a file (or an empty directory when rmdir is set).
func (fs *FS) Unlink(path string, rmdir bool) error {
	parent, name, err := fs.walk(path)
	if err != nil {
		return err
	}
	ino, slot, err := fs.dirLookup(parent, name)
	if err != nil {
		return err
	}
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	if in.Mode == modeDir {
		if !rmdir {
			return ErrIsDir
		}
		empty, err := fs.dirEmpty(ino)
		if err != nil {
			return err
		}
		if !empty {
			return ErrNotEmpty
		}
	} else if rmdir {
		return ErrNotDir
	}
	fs.k.HAL.KAccess(workUnlinkFile)
	if err := fs.dirRemove(parent, name, slot); err != nil {
		return err
	}
	in.Nlink--
	if in.Nlink == 0 {
		if in.Mode == modeDir {
			delete(fs.dirIndex, ino)
		}
		if err := fs.truncate(ino, &in); err != nil {
			return err
		}
		in.Mode = modeFree
		if err := fs.writeInode(ino, &in); err != nil {
			return err
		}
		return fs.freeInode(ino)
	}
	return fs.writeInode(ino, &in)
}

// Stat describes an inode.
func (fs *FS) Stat(ino uint32) (FileStat, error) {
	in, err := fs.readInode(ino)
	if err != nil {
		return FileStat{}, err
	}
	if in.Mode == modeFree {
		return FileStat{}, ErrNotFound
	}
	return FileStat{Ino: ino, Size: in.Size, IsDir: in.Mode == modeDir, Nlink: int(in.Nlink)}, nil
}

// ReadDir lists a directory's entries.
func (fs *FS) ReadDir(path string) ([]string, error) {
	ino, err := fs.Lookup(path)
	if err != nil {
		return nil, err
	}
	din, err := fs.readInode(ino)
	if err != nil {
		return nil, err
	}
	if din.Mode != modeDir {
		return nil, ErrNotDir
	}
	var names []string
	err = fs.dirScan(ino, &din, func(_ int, slots []byte) bool {
		for i := range len(slots) / direntSize {
			if child, nm := direntAt(slots, i); child != 0 {
				names = append(names, string(nm))
			}
		}
		return false
	})
	return names, err
}

// Sync flushes the buffer cache.
func (fs *FS) Sync() error { return fs.cache.Sync() }

// --- little-endian helpers ---------------------------------------------------

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
