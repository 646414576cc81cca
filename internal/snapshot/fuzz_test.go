package snapshot

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// FuzzSnapshotRoundTrip drives the whole contract from fuzzed inputs:
// pick a mode and a snap point, compare a snapshotted run against the
// straight run over the full final state (cycles, ledgers, memory,
// kernel structures — all folded into the encoded image), and check
// that a fuzz-chosen bit flip anywhere in the encoded image is rejected
// by the checksum before any state is touched.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(0))
	f.Add(uint8(1), uint8(1), uint32(17))
	f.Add(uint8(2), uint8(0), uint32(4099))
	f.Add(uint8(1), uint8(0), uint32(1<<20))
	f.Fuzz(func(t *testing.T, modeB, snapB uint8, flip uint32) {
		mode := core.Mode(int(modeB) % 3)
		const phases = 2
		snap := int(snapB) % phases

		cold := newSys(t, mode, 1)
		for i := 0; i < phases; i++ {
			runPhase(t, cold, i)
		}
		want := fingerprint(t, cold)
		wantCycles := cold.Machine.Clock.Cycles()

		src := newSys(t, mode, 1)
		for i := 0; i < snap; i++ {
			runPhase(t, src, i)
		}
		img, err := Capture(src)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Encode(img)
		if err != nil {
			t.Fatal(err)
		}

		// Corruption corpus: any single-bit mutation must be rejected.
		mut := append([]byte(nil), data...)
		pos := int(flip) % len(mut)
		mut[pos] ^= byte(1 << (flip % 8))
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d accepted", pos)
		}

		img2, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		dst := newSys(t, mode, 1)
		if err := Restore(dst, img2); err != nil {
			t.Fatal(err)
		}
		for i := snap; i < phases; i++ {
			runPhase(t, dst, i)
		}
		if got := fingerprint(t, dst); !bytes.Equal(got, want) {
			t.Fatalf("mode %v snap %d: restored run diverged from straight run", mode, snap)
		}
		if got := dst.Machine.Clock.Cycles(); got != wantCycles {
			t.Fatalf("mode %v snap %d: cycles %d, want %d", mode, snap, got, wantCycles)
		}
	})
}

// craftedEdits returns the structural edits FuzzRestoreCrafted makes to
// a decoded image, as the OS that stores the image can: drop a section,
// resize a list that the target indexes, or plant an index, pointer or
// count. Each takes one fuzzed argument. An edit of a section that an
// earlier edit dropped does nothing.
func craftedEdits() []craftedEdit {
	return []craftedEdit{
		{"drop section", func(img *Image, a uint64) {
			switch a % 3 {
			case 0:
				img.Machine = nil
			case 1:
				img.HAL = nil
			default:
				img.Kernel = nil
			}
		}},
		{"mode", func(img *Image, a uint64) { img.Mode = core.Mode(a % 4) }},
		{"sealed page", func(img *Image, a uint64) {
			if img.SealedPages == nil {
				img.SealedPages = make(map[uint64][]byte)
			}
			img.SealedPages[a>>8] = make([]byte, a%256)
		}},
		{"geometry", machineEdit(func(m *hw.MachineSnap, a uint64) {
			switch v := int(a >> 2); a % 3 {
			case 0:
				m.NumCPUs = v
			case 1:
				m.MemFrames = v
			default:
				m.DiskBlocks = v
			}
		})},
		{"CPU list", machineEdit(func(m *hw.MachineSnap, a uint64) { m.CPUs = resized(m.CPUs, a%4) })},
		{"current CPU", machineEdit(func(m *hw.MachineSnap, a uint64) { m.CurCPU = int(a) })},
		{"clock CPU", machineEdit(func(m *hw.MachineSnap, a uint64) { m.Clock.CPU = int(a) })},
		{"per-CPU ledgers", machineEdit(func(m *hw.MachineSnap, a uint64) { m.Clock.PerCPU = resized(m.Clock.PerCPU, a%4) })},
		{"frame-type table", machineEdit(func(m *hw.MachineSnap, a uint64) {
			m.Mem.FType = resized(m.Mem.FType, a%uint64(len(m.Mem.FType)+2))
		})},
		{"frame type", machineEdit(func(m *hw.MachineSnap, a uint64) {
			if len(m.Mem.FType) > 0 {
				m.Mem.FType[a%uint64(len(m.Mem.FType))] = byte(a >> 32)
			}
		})},
		{"reference counts", machineEdit(func(m *hw.MachineSnap, a uint64) {
			m.Mem.Refs = resized(m.Mem.Refs, a%uint64(len(m.Mem.Refs)+2))
		})},
		{"free frame", machineEdit(func(m *hw.MachineSnap, a uint64) { m.Mem.Free = append(m.Mem.Free, a) })},
		{"page", machineEdit(func(m *hw.MachineSnap, a uint64) { m.Mem.Pages[a] = make([]byte, hw.PageSize) })},
		{"page length", machineEdit(func(m *hw.MachineSnap, a uint64) {
			m.Mem.Pages[a>>16] = make([]byte, a%(2*hw.PageSize))
		})},
		{"disk block", machineEdit(func(m *hw.MachineSnap, a uint64) {
			if m.Disk.Blocks == nil {
				m.Disk.Blocks = make(map[int][]byte)
			}
			m.Disk.Blocks[int(int32(a))] = make([]byte, (a>>32)%(2*hw.BlockSize))
		})},
		{"IPI", machineEdit(func(m *hw.MachineSnap, a uint64) {
			if len(m.CPUs) > 0 {
				m.CPUs[0].IPIs = append(m.CPUs[0].IPIs, hw.IPI{From: int(a), Kind: hw.IPIKind(a >> 56), Arg: a})
			}
		})},
		{"MMU root", machineEdit(func(m *hw.MachineSnap, a uint64) {
			if len(m.CPUs) > 0 {
				m.CPUs[0].MMURoot = a
			}
		})},
		{"TLB entry", machineEdit(func(m *hw.MachineSnap, a uint64) {
			if len(m.CPUs) > 0 {
				m.CPUs[0].TLB = append(m.CPUs[0].TLB, hw.TLBSnapEntry{Page: a, Frame: a >> 12, Flags: a})
			}
		})},
		{"NIC", machineEdit(func(m *hw.MachineSnap, a uint64) {
			m.NIC.RX = append(m.NIC.RX, hw.Packet{Port: uint16(a), Payload: make([]byte, (a>>16)%4096)})
			m.NIC.PortDrops = append(m.NIC.PortDrops, hw.PortDropSnap{Port: uint16(a >> 32), Drops: a})
		})},
		{"IOMMU", machineEdit(func(m *hw.MachineSnap, a uint64) {
			m.IOMMU.Allowed = append(m.IOMMU.Allowed, a)
			m.IOMMU.LatchFrame = a >> 1
		})},
		{"HAL CPU list", halEdit(func(h *core.HALSnap, a uint64) { h.Cur = resized(h.Cur, a%4) })},
		{"thread", halEdit(func(h *core.HALSnap, a uint64) {
			h.Threads = append(h.Threads, core.ThreadSnap{ID: int64(a), Root: a >> 8, IC: &hw.TrapFrame{Info: a}})
		})},
		{"thread with a nil IC-stack entry", halEdit(func(h *core.HALSnap, a uint64) {
			h.Threads = append(h.Threads, core.ThreadSnap{ID: int64(a), ICStack: []*hw.TrapFrame{nil}})
		})},
		{"ghost page", halEdit(func(h *core.HALSnap, a uint64) {
			h.Threads = append(h.Threads, core.ThreadSnap{ID: int64(a >> 32),
				Ghost:   []core.GhostPageSnap{{VA: a, Frame: a >> 12}},
				Swapped: []core.SwapPageSnap{{VA: a >> 1, Digest: make([]byte, a%64)}}})
		})},
		{"scratch page", halEdit(func(h *core.HALSnap, a uint64) {
			if h.Scratch == nil {
				h.Scratch = make(core.ScratchSnap)
			}
			h.Scratch[a>>16] = make([]byte, a%(2*hw.PageSize))
		})},
		{"kernel CPU list", kernelEdit(func(k *kernel.KernelSnap, a uint64) { k.CPUs = resized(k.CPUs, a%4) })},
		{"last CPU", kernelEdit(func(k *kernel.KernelSnap, a uint64) { k.LastCPU = int(a) })},
		{"syscall profile", kernelEdit(func(k *kernel.KernelSnap, a uint64) {
			k.SysProf = append(k.SysProf, kernel.SyscallCycles{Num: a, Count: 1})
		})},
		{"cached block", kernelEdit(func(k *kernel.KernelSnap, a uint64) {
			if n := uint64(len(k.BufCache.Bufs)); n > 0 {
				b := &k.BufCache.Bufs[a%n]
				b.Blk, b.Data = int(int32(a>>8)), resized(b.Data, (a>>40)%(2*hw.BlockSize))
			}
		})},
		{"name cache", kernelEdit(func(k *kernel.KernelSnap, a uint64) {
			k.FS.NameCache = append(k.FS.NameCache, kernel.NameCacheSnap{Dir: uint32(a), Name: "x", Ino: uint32(a >> 32), Slot: int(int32(a >> 16))})
			k.FS.SlotHints = append(k.FS.SlotHints, kernel.SlotHintSnap{Dir: uint32(a >> 8), Slot: int(int32(a >> 32))})
		})},
		{"modules", kernelEdit(func(k *kernel.KernelSnap, a uint64) { k.Modules = resized(k.Modules, a%4) })},
	}
}

type craftedEdit struct {
	name string
	edit func(img *Image, a uint64)
}

func machineEdit(edit func(*hw.MachineSnap, uint64)) func(*Image, uint64) {
	return func(img *Image, a uint64) {
		if img.Machine != nil {
			edit(img.Machine, a)
		}
	}
}

func halEdit(edit func(*core.HALSnap, uint64)) func(*Image, uint64) {
	return func(img *Image, a uint64) {
		if img.HAL != nil {
			edit(img.HAL, a)
		}
	}
}

func kernelEdit(edit func(*kernel.KernelSnap, uint64)) func(*Image, uint64) {
	return func(img *Image, a uint64) {
		if img.Kernel != nil {
			edit(img.Kernel, a)
		}
	}
}

// resized returns s cut or zero-extended to n entries.
func resized[T any](s []T, n uint64) []T {
	if n <= uint64(len(s)) {
		return s[:n]
	}
	return append(s, make([]T, n-uint64(len(s)))...)
}

// craftedInput encodes one edit as FuzzRestoreCrafted reads it: the
// edit's index in edits, then its argument as 8 little-endian bytes.
func craftedInput(t testing.TB, edits []craftedEdit, name string, arg uint64) []byte {
	op := slices.IndexFunc(edits, func(e craftedEdit) bool { return e.name == name })
	if op < 0 {
		t.Fatalf("no crafted edit %q", name)
	}
	return binary.LittleEndian.AppendUint64([]byte{byte(op)}, arg)
}

// FuzzRestoreCrafted plays the OS that stores a snapshot image: it
// edits a decoded image's structure, re-encodes it under a valid
// checksum and restores it onto a freshly booted machine of the same
// configuration. Restore must accept the image or refuse it with the
// target exactly as booted, must leave the image it was given as it
// was, and must never panic. The seeds are eleven edits that an apply
// checking the image only in part trips on: a missing HAL, kernel or
// machine section, a nil IC-stack entry, an empty CPU list, a short
// frame-type table, a page or current CPU out of range (all panics), a
// clock CPU of 2^40 (a 2^40-entry ledger slice), a HAL CPU list one
// entry too long (refused after the machine changed), and a free-list
// frame past memory (accepted, to panic at the next allocation).
func FuzzRestoreCrafted(f *testing.F) {
	edits := craftedEdits()
	native, vghost := uint8(core.ModeNative), uint8(core.ModeVirtualGhost)
	for _, s := range []struct {
		mode uint8
		in   []byte
	}{
		{native, craftedInput(f, edits, "drop section", 1)},                     // no HAL state
		{native, craftedInput(f, edits, "drop section", 2)},                     // no kernel state
		{vghost, craftedInput(f, edits, "drop section", 0)},                     // no machine state
		{native, craftedInput(f, edits, "thread with a nil IC-stack entry", 7)}, // nil IC-stack entry
		{native, craftedInput(f, edits, "CPU list", 0)},                         // empty CPU list
		{vghost, craftedInput(f, edits, "frame-type table", 100)},               // short frame-type table
		{native, craftedInput(f, edits, "page", 1<<20)},                         // page past memory
		{native, craftedInput(f, edits, "current CPU", 1)},                      // current CPU past the CPUs
		{native, craftedInput(f, edits, "clock CPU", 1<<40)},                    // clock CPU 2^40
		{native, craftedInput(f, edits, "HAL CPU list", 2)},                     // HAL CPU list one too long
		{native, craftedInput(f, edits, "free frame", 1<<20)},                   // free frame past memory
	} {
		f.Add(s.mode, s.in)
	}

	// One source image per mode, taken after a workload so that it
	// differs from a fresh boot, and the fresh boot's own image, which a
	// refused restore must leave the target matching.
	var sources, fresh [3][]byte
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost, core.ModeShadow} {
		src := newSys(f, mode, 1)
		runPhase(f, src, 1)
		sources[mode], fresh[mode] = fingerprint(f, src), fingerprint(f, newSys(f, mode, 1))
	}

	f.Fuzz(func(t *testing.T, modeB uint8, in []byte) {
		mode := core.Mode(modeB % 3)
		img, err := Decode(sources[mode])
		if err != nil {
			t.Fatal(err)
		}
		for ; len(in) >= 9; in = in[9:] {
			edits[int(in[0])%len(edits)].edit(img, binary.LittleEndian.Uint64(in[1:9]))
		}
		data, err := Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		if img, err = Decode(data); err != nil {
			t.Fatalf("re-checksummed image refused by Decode: %v", err)
		}
		dst := newSys(t, mode, 1)
		err = Restore(dst, img)
		if again, encErr := Encode(img); encErr != nil || !bytes.Equal(again, data) {
			t.Fatalf("Restore changed the image it was given (restore error %v)", err)
		}
		if err != nil && !bytes.Equal(fingerprint(t, dst), fresh[mode]) {
			t.Fatalf("refused image (%v) changed the target", err)
		}
	})
}
