package hw

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// cachedFrame resolves va through the walk cache and fails the test on
// error; mapped=false is reported as frame 0.
func cachedFrame(t *testing.T, u *MMU, root Frame, va Virt) (Frame, bool) {
	t.Helper()
	e, ok, err := u.CachedLeaf(root, va)
	if err != nil {
		t.Fatalf("CachedLeaf(%#x): %v", uint64(va), err)
	}
	if !ok {
		return 0, false
	}
	return e.Frame(), true
}

// liveWalks counts the walk-cache slots that can still serve a lookup:
// those filled at the current page-table generation.
func liveWalks(u *MMU) int {
	n := 0
	for _, s := range u.walks {
		if s.gen == u.mem.ptGen {
			n++
		}
	}
	return n
}

func TestWalkCacheHitReturnsSameLeaf(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f := mapOne(t, m, u, root, va, PTEWrite|PTEUser)

	got, ok := cachedFrame(t, u, root, va)
	if !ok || got != f {
		t.Fatalf("first lookup: got (%d,%v), want (%d,true)", got, ok, f)
	}
	if n := liveWalks(u); n != 1 {
		t.Fatalf("walk cache has %d live entries, want 1", n)
	}
	got, ok = cachedFrame(t, u, root, va+123)
	if !ok || got != f {
		t.Fatalf("cached lookup: got (%d,%v), want (%d,true)", got, ok, f)
	}
}

func TestWalkCacheNegativeNotCached(t *testing.T) {
	_, u, root := testAS(t)
	if _, ok := cachedFrame(t, u, root, 0x400000); ok {
		t.Fatal("unmapped page resolved")
	}
	if n := liveWalks(u); n != 0 {
		t.Fatalf("negative walk was cached: %d live entries", n)
	}
}

func TestWalkCacheRawWritePTEInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f1 := mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if got, _ := cachedFrame(t, u, root, va); got != f1 {
		t.Fatalf("got frame %d, want %d", got, f1)
	}

	// Point the leaf at a different frame through the raw hardware
	// primitive (exactly what a hostile Native kernel can do).
	table, idx, ok, err := u.WalkLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("WalkLeaf: ok=%v err=%v", ok, err)
	}
	f2, err := m.AllocFrame(FrameUserData)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.RawWritePTE(table, idx, MakePTE(f2, PTEPresent|PTEWrite|PTEUser)); err != nil {
		t.Fatal(err)
	}

	if got, _ := cachedFrame(t, u, root, va); got != f2 {
		t.Fatalf("stale translation survived RawWritePTE: got frame %d, want %d", got, f2)
	}
}

func TestWalkCachePhysicalWriteToTableInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}

	// Clear the leaf PTE with a raw physical store to the (declared)
	// page-table frame, bypassing every MMU primitive.
	table, idx, ok, err := u.WalkLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("WalkLeaf: ok=%v err=%v", ok, err)
	}
	if err := m.Write64(table.Addr()+Phys(idx*8), 0); err != nil {
		t.Fatal(err)
	}

	if _, ok := cachedFrame(t, u, root, va); ok {
		t.Fatal("stale translation survived a physical page-table write")
	}
}

func TestWalkCacheZeroFrameInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}
	table, _, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(table); err != nil {
		t.Fatal(err)
	}
	if _, ok := cachedFrame(t, u, root, va); ok {
		t.Fatal("stale translation survived ZeroFrame of its leaf table")
	}
}

func TestWalkCacheFrameBytesInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}
	table, idx, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.FrameBytes(table)
	if err != nil {
		t.Fatal(err)
	}
	// Scribble the leaf PTE through the raw slice.
	for i := 0; i < 8; i++ {
		raw[int(idx)*8+i] = 0
	}
	if _, ok := cachedFrame(t, u, root, va); ok {
		t.Fatal("stale translation survived FrameBytes mutation")
	}
}

// TestWalkCacheNoResurrectionAcrossSetRoot is the FlushTLB/SetRoot
// interaction fix: entries are keyed (root, page) and go stale with the
// page-table generation, not with CR3, so invalidating a mapping while
// its address space is inactive must stick when that root is loaded
// again.
func TestWalkCacheNoResurrectionAcrossSetRoot(t *testing.T) {
	m, u, root1 := testAS(t)
	va := Virt(0x400000)
	f1 := mapOne(t, m, u, root1, va, PTEWrite|PTEUser)

	root2, err := m.AllocFrame(FramePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(root2); err != nil {
		t.Fatal(err)
	}

	// Populate the cache for root1, then switch away.
	if got, _ := cachedFrame(t, u, root1, va); got != f1 {
		t.Fatal("expected mapping in root1")
	}
	u.SetRoot(root2)

	// While root1 is inactive, tear down its mapping.
	table, idx, ok, err := u.WalkLeaf(root1, va)
	if err != nil || !ok {
		t.Fatalf("WalkLeaf: ok=%v err=%v", ok, err)
	}
	if err := u.RawWritePTE(table, idx, 0); err != nil {
		t.Fatal(err)
	}

	// Switching back must not bring the old translation with it.
	u.SetRoot(root1)
	if _, ok := cachedFrame(t, u, root1, va); ok {
		t.Fatal("invalidated translation resurrected by SetRoot")
	}
}

// TestWalkCacheSurvivesSetRoot pins the flip side: entries for *other*
// roots are host-side state, not TLB state, so an address-space switch
// alone must not discard them (that is the point of (root, page) keys).
func TestWalkCacheSurvivesSetRoot(t *testing.T) {
	m, u, root1 := testAS(t)
	va := Virt(0x400000)
	f1 := mapOne(t, m, u, root1, va, PTEWrite|PTEUser)

	root2, err := m.AllocFrame(FramePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(root2); err != nil {
		t.Fatal(err)
	}
	if got, _ := cachedFrame(t, u, root1, va); got != f1 {
		t.Fatal("expected mapping in root1")
	}
	u.SetRoot(root2)
	if n := liveWalks(u); n != 1 {
		t.Fatalf("SetRoot dropped walk-cache entries: %d live, want 1", n)
	}
	if got, _ := cachedFrame(t, u, root1, va); got != f1 {
		t.Fatal("cross-AS translation lost after SetRoot")
	}
}

// TestWalkCacheFreedTableFrame covers root/table frame recycling: once
// a page-table frame is freed (or retyped), every cached walk through
// it must die, so a later reallocation of the same frame cannot serve
// stale translations.
func TestWalkCacheFreedTableFrame(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}

	table, _, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrame(table); err != nil {
		t.Fatal(err)
	}
	if n := liveWalks(u); n != 0 {
		t.Fatalf("FreeFrame of a table frame left %d live cached walks", n)
	}
}

func TestWalkCacheSetTypeInvalidates(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	if _, ok := cachedFrame(t, u, root, va); !ok {
		t.Fatal("expected mapping")
	}
	table, _, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetType(table, FrameUserData); err != nil {
		t.Fatal(err)
	}
	if n := liveWalks(u); n != 0 {
		t.Fatalf("SetType away from FramePageTable left %d live cached walks", n)
	}
}

func TestWalkCachePermissionChangeObserved(t *testing.T) {
	m, u, root := testAS(t)
	va := Virt(0x400000)
	f := mapOne(t, m, u, root, va, PTEWrite|PTEUser)
	e, ok, err := u.CachedLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("CachedLeaf: ok=%v err=%v", ok, err)
	}
	if !e.Writable() {
		t.Fatal("expected writable leaf")
	}

	// Downgrade to read-only through the raw primitive.
	table, idx, _, err := u.WalkLeaf(root, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.RawWritePTE(table, idx, MakePTE(f, PTEPresent|PTEUser)); err != nil {
		t.Fatal(err)
	}
	e, ok, err = u.CachedLeaf(root, va)
	if err != nil || !ok {
		t.Fatalf("CachedLeaf after downgrade: ok=%v err=%v", ok, err)
	}
	if e.Writable() {
		t.Fatal("stale writable PTE served after permission downgrade")
	}
}

// TestWalkCacheMatchesWalk drives random page-table changes through
// every path that can change a table byte, on one Memory shared by the
// MMUs of two or three CPUs, and after every step demands that each
// (root, page) of interest resolve through CachedLeaf exactly as a
// fresh walk of the tables resolves it now. The rule under test: a
// cached walk serves only the page-table generation it was filled at.
func TestWalkCacheMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			newWalkModel(t, seed).run(300)
		})
	}
}

// walkModel is one run of TestWalkCacheMatchesWalk: three address
// spaces over a fixed set of pages. Address spaces 0 and 1 declare
// their tables (FramePageTable); address space 2 leaves them
// FrameUserData, as a hostile native kernel may, so only RawWritePTE
// writes them. Leaf PTEs point only at the data frames, which nothing
// writes, so every table byte changes through RawWritePTE, through a
// Memory path on a frame typed FramePageTable at the time, or right
// after a FreeFrame or SetType with no lookup in between.
type walkModel struct {
	t     *testing.T
	m     *Machine
	rng   *rand.Rand
	roots []Frame
	pages []Virt
	data  []Frame
	// collide lists pairs of (root, page) keys that share a slot.
	collide [][2]lookupKey
}

type lookupKey struct {
	root Frame
	page Virt
}

// tableRef is one table a walk of a page of interest reads: the frame,
// its level (0 = leaf table) and the entry index that page uses.
type tableRef struct {
	frame Frame
	level int
	idx   uint64
}

func newWalkModel(t *testing.T, seed int64) *walkModel {
	w := &walkModel{
		t:   t,
		m:   NewMachine(MachineConfig{MemFrames: 1024, DiskBlocks: 16, Seed: 1, NumCPUs: 2 + int(seed%2)}),
		rng: rand.New(rand.NewSource(seed)),
	}
	// Before anything bumps the generation an empty slot (root 0, page
	// 0, generation 0) must not serve the lookup that matches it.
	w.checkOne(w.m.MMU, 0, 0, "empty cache")

	for i := 0; i < 3; i++ {
		ft := FramePageTable
		if i == 2 {
			ft = FrameUserData
		}
		w.roots = append(w.roots, w.alloc(ft))
	}
	for i := 0; i < 8; i++ {
		w.data = append(w.data, w.alloc(FrameUserData))
	}
	// Pages that share a leaf table, a directory, or nothing below the
	// root; 0x440000 takes the same slot as 0x400000 in any root.
	w.pages = []Virt{0x400000, 0x401000, 0x440000, 0x600000, 0x40000000,
		0x7f0000000000, GhostBase + 0x1000, KernBase + 0x200000}
	// A page that makes (roots[1], q) take the slot of (roots[0], 0x400000).
	q := Virt(0x400000) + Virt((uint64(w.roots[0]^w.roots[1])%walkSlots)<<PageShift)
	w.pages = append(w.pages, q)
	// A root that takes the slot of roots[0] for every page. Only the
	// collision check looks it up, so it never evicts roots[0]'s walks
	// between steps.
	var alias Frame
	var skipped []Frame
	for alias = w.alloc(FramePageTable); alias%walkSlots != w.roots[0]%walkSlots; alias = w.alloc(FramePageTable) {
		skipped = append(skipped, alias)
	}
	for _, f := range skipped {
		w.must(w.m.Mem.FreeFrame(f))
	}
	w.mapIn(alias, 0x400000, FramePageTable)
	w.collide = [][2]lookupKey{
		{{w.roots[0], 0x400000}, {w.roots[0], 0x440000}},
		{{w.roots[0], 0x400000}, {alias, 0x400000}},
		{{w.roots[0], 0x400000}, {w.roots[1], q}},
	}
	for _, c := range w.collide {
		if walkIndex(c[0].root, c[0].page) != walkIndex(c[1].root, c[1].page) {
			t.Fatalf("%v and %v do not share a slot", c[0], c[1])
		}
	}
	for as := range w.roots {
		for i, page := range w.pages {
			if i%2 == as%2 {
				w.mapPage(as, page)
			}
		}
	}
	for _, c := range w.m.CPUs {
		c.MMU.SetRoot(w.roots[0])
	}
	return w
}

func (w *walkModel) run(steps int) {
	ops := w.ops()
	w.check("setup")
	for step := 0; step < steps; step++ {
		if w.rng.Intn(len(ops)+1) == 0 {
			w.snapshot(ops, step)
		} else {
			op := ops[w.rng.Intn(len(ops))]
			op.fn()
			w.check(fmt.Sprintf("step %d (%s)", step, op.name))
		}
	}
}

type walkOp struct {
	name string
	fn   func()
}

func (w *walkModel) ops() []walkOp {
	return []walkOp{
		{"map", func() { w.mapPage(w.rng.Intn(len(w.roots)), w.page()) }},
		{"unmap", func() { w.rewriteLeaf(func(PTE) PTE { return 0 }) }},
		{"retarget", func() {
			w.rewriteLeaf(func(e PTE) PTE { return MakePTE(w.dataFrame(), uint64(e)&^pteAddrMask) })
		}},
		{"downgrade", func() {
			w.rewriteLeaf(func(e PTE) PTE { return e &^ PTE([]uint64{PTEWrite, PTEUser}[w.rng.Intn(2)]) })
		}},
		{"store", w.store},
		{"zero", func() {
			if r, ok := w.declaredTable(); ok {
				w.must(w.m.Mem.ZeroFrame(r.frame))
			}
		}},
		{"framebytes", func() {
			if r, ok := w.declaredTable(); ok {
				b, err := w.m.Mem.FrameBytes(r.frame)
				w.must(err)
				binary.LittleEndian.PutUint64(b[r.idx*8:], uint64(w.entryFor(r)))
			}
		}},
		{"settype", w.setType},
		{"free", w.freeAndReuse},
		{"setroot", func() {
			w.cpu().SetRoot(w.roots[w.rng.Intn(len(w.roots))])
		}},
	}
}

func (w *walkModel) must(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *walkModel) alloc(ft FrameType) Frame {
	f, err := w.m.Mem.AllocFrame(ft)
	w.must(err)
	w.must(w.m.Mem.ZeroFrame(f))
	return f
}

func (w *walkModel) cpu() *MMU        { return w.m.CPUs[w.rng.Intn(len(w.m.CPUs))].MMU }
func (w *walkModel) page() Virt       { return w.pages[w.rng.Intn(len(w.pages))] }
func (w *walkModel) dataFrame() Frame { return w.data[w.rng.Intn(len(w.data))] }

func (w *walkModel) leafFlags() uint64 {
	return PTEPresent | []uint64{PTEWrite | PTEUser, PTEUser, PTEWrite, 0}[w.rng.Intn(4)]
}

// mapPage maps page in address space as to a data frame, allocating
// missing tables of the address space's kind.
func (w *walkModel) mapPage(as int, page Virt) {
	ft := FramePageTable
	if as == 2 {
		ft = FrameUserData
	}
	w.mapIn(w.roots[as], page, ft)
}

// mapIn maps page under root to a data frame through a random CPU,
// allocating missing tables of type ft.
func (w *walkModel) mapIn(root Frame, page Virt, ft FrameType) {
	u := w.cpu()
	table, idx, err := u.EnsureTables(root, page,
		func() (Frame, error) { return w.alloc(ft), nil }, u.RawWritePTE)
	w.must(err)
	w.must(u.RawWritePTE(table, idx, MakePTE(w.dataFrame(), w.leafFlags())))
}

// rewriteLeaf replaces a present leaf PTE through RawWritePTE.
func (w *walkModel) rewriteLeaf(fn func(PTE) PTE) {
	u := w.cpu()
	table, idx, ok, err := u.WalkLeaf(w.roots[w.rng.Intn(len(w.roots))], w.page())
	w.must(err)
	if !ok {
		return
	}
	e, err := u.ReadPTE(table, idx)
	w.must(err)
	if e.Present() {
		w.must(u.RawWritePTE(table, idx, fn(e)))
	}
}

// tables lists every table the walks of the pages of interest read.
func (w *walkModel) tables() []tableRef {
	var out []tableRef
	for _, root := range w.roots {
		for _, page := range w.pages {
			table := root
			for level := ptLevels - 1; level >= 0; level-- {
				idx := ptIndex(page, level)
				out = append(out, tableRef{table, level, idx})
				e, err := w.m.MMU.ReadPTE(table, idx)
				w.must(err)
				if level == 0 || !e.Present() {
					break
				}
				table = e.Frame()
			}
		}
	}
	return out
}

// declaredTable picks a table typed FramePageTable, which raw physical
// writes may change.
func (w *walkModel) declaredTable() (tableRef, bool) {
	var declared []tableRef
	for _, r := range w.tables() {
		if w.m.Mem.TypeOf(r.frame) == FramePageTable {
			declared = append(declared, r)
		}
	}
	if len(declared) == 0 {
		return tableRef{}, false
	}
	return declared[w.rng.Intn(len(declared))], true
}

// entryFor picks a new value for entry r.idx of table r.frame: empty,
// its write bit flipped, or a link to another table one level down (or
// to a data frame, in a leaf table), which shares tables between
// address spaces.
func (w *walkModel) entryFor(r tableRef) PTE {
	cur, err := w.m.MMU.ReadPTE(r.frame, r.idx)
	w.must(err)
	switch w.rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return cur ^ PTE(PTEWrite)
	}
	if r.level == 0 {
		return MakePTE(w.dataFrame(), w.leafFlags())
	}
	var below []Frame
	for _, t := range w.tables() {
		if t.level == r.level-1 {
			below = append(below, t.frame)
		}
	}
	if len(below) == 0 {
		return 0
	}
	return MakePTE(below[w.rng.Intn(len(below))], PTEPresent|PTEWrite|PTEUser)
}

// store writes an entry of a declared table with a raw physical store,
// bypassing every MMU primitive.
func (w *walkModel) store() {
	r, ok := w.declaredTable()
	if !ok {
		return
	}
	p, e := r.frame.Addr()+Phys(r.idx*8), w.entryFor(r)
	if w.rng.Intn(2) == 0 {
		w.must(w.m.Mem.Write64(p, uint64(e)))
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e))
	w.must(w.m.Mem.WritePhys(p, b[:]))
}

// setType flips a table between declared and undeclared. A table that
// stops being declared is at once written as plain data, which only the
// retype's invalidation covers.
func (w *walkModel) setType() {
	refs := w.tables()
	r := refs[w.rng.Intn(len(refs))]
	if w.m.Mem.TypeOf(r.frame) != FramePageTable {
		w.must(w.m.Mem.SetType(r.frame, FramePageTable))
		return
	}
	e := w.entryFor(r)
	w.must(w.m.Mem.SetType(r.frame, FrameUserData))
	w.must(w.m.Mem.Write64(r.frame.Addr()+Phys(r.idx*8), uint64(e)))
}

// freeAndReuse frees a declared table that is still linked and takes
// the frame straight back as zeroed data, so the walks through it now
// find nothing; only the free's invalidation covers the zeroing.
func (w *walkModel) freeAndReuse() {
	r, ok := w.declaredTable()
	if !ok {
		return
	}
	w.must(w.m.Mem.FreeFrame(r.frame))
	if f := w.alloc(FrameUserData); f != r.frame {
		w.t.Fatalf("reallocation returned frame %d, want the freed %d", f, r.frame)
	}
}

// snapshot captures the machine, changes and looks up page tables for
// a few steps, then restores the capture.
func (w *walkModel) snapshot(ops []walkOp, step int) {
	snap, err := w.m.CaptureSnap()
	w.must(err)
	for i := 1 + w.rng.Intn(4); i > 0; i-- {
		op := ops[w.rng.Intn(len(ops))]
		op.fn()
		w.check(fmt.Sprintf("step %d (%s after a capture)", step, op.name))
	}
	share := w.rng.Intn(2) == 0
	w.must(w.m.ApplySnap(snap, share))
	w.check(fmt.Sprintf("step %d (restore, sharing pages %v)", step, share))
}

// check compares every (root, page) of interest on every CPU, twice so
// that the second pass can hit, then looks up each colliding pair
// alternately.
func (w *walkModel) check(when string) {
	w.t.Helper()
	for _, c := range w.m.CPUs {
		for pass := 0; pass < 2; pass++ {
			for _, root := range w.roots {
				for _, page := range w.pages {
					w.checkOne(c.MMU, root, page+Virt(w.rng.Intn(PageSize)), when)
				}
			}
		}
		for _, pair := range w.collide {
			for i := 0; i < 4; i++ {
				k := pair[i%2]
				w.checkOne(c.MMU, k.root, k.page, when+", colliding pair")
			}
		}
	}
}

func (w *walkModel) checkOne(u *MMU, root Frame, v Virt, when string) {
	w.t.Helper()
	got, gotOK, gotErr := u.CachedLeaf(root, v)
	want, wantOK, wantErr := freshLeaf(u, root, v)
	if got != want || gotOK != wantOK || (gotErr == nil) != (wantErr == nil) {
		w.t.Fatalf("%s: cpu%d CachedLeaf(root %d, %#x) = (%#x, %v, %v), a fresh walk gives (%#x, %v, %v)",
			when, u.cpu, root, uint64(v), uint64(got), gotOK, gotErr, uint64(want), wantOK, wantErr)
	}
}

// freshLeaf is what CachedLeaf must return: the present leaf PTE a walk
// of the tables finds now, or ok == false.
func freshLeaf(u *MMU, root Frame, v Virt) (PTE, bool, error) {
	table, idx, ok, err := u.WalkLeaf(root, v)
	if err != nil || !ok {
		return 0, false, err
	}
	e, err := u.ReadPTE(table, idx)
	if err != nil || !e.Present() {
		return 0, false, err
	}
	return e, true, nil
}
