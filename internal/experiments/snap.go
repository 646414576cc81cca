package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro"
	"repro/internal/apps/lmbench"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/snapshot"
)

// This file is the experiments-harness side of the snapshot subsystem
// (internal/snapshot, DESIGN.md §18): the cold-vs-warm differential
// experiment and the tampered-snapshot security vector.

// --- cold-vs-warm differential ----------------------------------------

// SnapRow is one configuration's snapshot round-trip differential.
type SnapRow struct {
	Config string
	// ColdCycles / WarmCycles are the cumulative virtual clocks of the
	// uninterrupted and the snapshotted run after the same workload.
	ColdCycles uint64
	WarmCycles uint64
	// ImageCycles is the virtual clock frozen into the image — the work
	// a fork does not redo.
	ImageCycles uint64
	ImageBytes  int
	SealedPages int
	// Identical reports whether the two final machine states are
	// byte-for-byte equal (whole re-encoded image compared, not just
	// the clock).
	Identical bool
}

// snapWorkload is the fixed differential workload: file I/O, fork+exit
// and syscall traffic, enough to touch the scheduler, the FS, the
// buffer cache and the HAL on both sides of the snap point.
func snapWorkload(k *kernel.Kernel) {
	lmbench.NullSyscall(k, 32)
	lmbench.OpenClose(k, 8)
	lmbench.ForkExit(k, 2)
}

// SnapDifferential runs the snapshot round-trip differential on all
// three configurations: boot, snapshot, restore into a fresh machine,
// run the same workload cold and warm, and compare the entire final
// machine state. Identical=false in any row is a determinism bug.
func SnapDifferential() []SnapRow {
	modes := []struct {
		name string
		mode repro.Mode
	}{
		{"native", repro.Native},
		{"vghost", repro.VirtualGhost},
		{"shadow", repro.Shadow},
	}
	rows := make([]SnapRow, len(modes))
	for i, m := range modes {
		cold := newSystem(m.mode)
		snapWorkload(cold.Kernel)
		coldState := mustEncode(cold)

		src := newSystem(m.mode)
		img, err := snapshot.Capture(src)
		if err != nil {
			panic(fmt.Sprintf("experiments: snap capture %s: %v", m.name, err))
		}
		data, err := snapshot.Encode(img)
		if err != nil {
			panic(fmt.Sprintf("experiments: snap encode %s: %v", m.name, err))
		}
		warm, err := snapshot.Fork(img, repro.Options{})
		if err != nil {
			panic(fmt.Sprintf("experiments: snap fork %s: %v", m.name, err))
		}
		snapWorkload(warm.Kernel)
		warmState := mustEncode(warm)

		rows[i] = SnapRow{
			Config:      m.name,
			ColdCycles:  cold.Machine.Clock.Cycles(),
			WarmCycles:  warm.Machine.Clock.Cycles(),
			ImageCycles: img.Machine.Clock.Cycles,
			ImageBytes:  len(data),
			SealedPages: len(img.SealedPages),
			Identical:   bytes.Equal(coldState, warmState),
		}
	}
	return rows
}

func mustEncode(sys *repro.System) []byte {
	img, err := snapshot.Capture(sys)
	if err != nil {
		panic(fmt.Sprintf("experiments: capture: %v", err))
	}
	data, err := snapshot.Encode(img)
	if err != nil {
		panic(fmt.Sprintf("experiments: encode: %v", err))
	}
	return data
}

// FormatSnap renders the differential as a Markdown table.
func FormatSnap(rows []SnapRow) string {
	var sb strings.Builder
	sb.WriteString("Snapshot round-trip differential (cold boot vs fork-from-image, identical workload)\n\n")
	sb.WriteString("| Config | Cold cycles | Warm cycles | Image cycles | Image B | Sealed | Bit-identical |\n" +
		"|---|---:|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %s | %d | %d | %d | %d | %d | %v |\n",
			r.Config, r.ColdCycles, r.WarmCycles, r.ImageCycles, r.ImageBytes, r.SealedPages, r.Identical)
	}
	return sb.String()
}

// --- tampered-snapshot security vector --------------------------------

// snapSecret is the ghost secret the tamper vector plants.
const snapSecret = "SNAP-TAMPER-SECRET-0xBEEF-41"

// runSnapTamper plays the hostile-OS move against a snapshot image: the
// OS (which stores the image) decodes it, rewrites protected memory,
// recomputes the integrity checksum — trivial, it is not a secret — and
// feeds the image back to a restore. Natively the victim's ghost pages
// travel in the image as plaintext the OS can read and rewrite, and the
// tampered image restores without complaint. Under Virtual Ghost the
// ghost remnants were scrubbed before the frames ever returned to the
// OS, the surviving protected frames are sealed under a TPM-rooted key,
// and a single flipped bit makes the restore refuse the image.
func runSnapTamper(sys *repro.System) (bool, string) {
	k := sys.Kernel
	if _, err := k.Spawn("victim", func(p *kernel.Proc) {
		l, err := libc.NewGhosting(p)
		if err != nil {
			return
		}
		g, err := l.Malloc(64)
		if err != nil {
			return
		}
		l.WriteGhost(g, []byte(snapSecret))
		p.Compute(1_000)
	}); err != nil {
		return false, fmt.Sprintf("victim spawn failed: %v", err)
	}
	k.RunUntilIdle()

	img, err := snapshot.Capture(sys)
	if err != nil {
		return false, fmt.Sprintf("capture failed: %v", err)
	}

	// Attacker step 1: scan the image's plaintext frames for the ghost
	// secret (deterministic frame order).
	secret := []byte(snapSecret)
	frames := make([]uint64, 0, len(img.Machine.Mem.Pages))
	for f := range img.Machine.Mem.Pages {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, f := range frames {
		b := img.Machine.Mem.Pages[f]
		i := bytes.Index(b, secret)
		if i < 0 {
			continue
		}
		// Found in the clear: flip one byte of it, re-checksum, restore.
		b[i] ^= 0xff
		if err := tamperRestore(sys.Mode, img); err != nil {
			return false, fmt.Sprintf("tampered plaintext refused: %v", err)
		}
		return true, fmt.Sprintf("ghost secret read from image frame %d; tampered image restored cleanly", f)
	}

	// No plaintext secret: protected frames travel sealed. Flip one bit
	// of the lowest sealed blob and try the same move.
	if len(img.SealedPages) == 0 {
		return false, "no plaintext secret in image and no sealed frames to attack"
	}
	sealed := make([]uint64, 0, len(img.SealedPages))
	for f := range img.SealedPages {
		sealed = append(sealed, f)
	}
	sort.Slice(sealed, func(i, j int) bool { return sealed[i] < sealed[j] })
	blob := img.SealedPages[sealed[0]]
	blob[len(blob)/2] ^= 0x01
	if err := tamperRestore(sys.Mode, img); err != nil {
		return false, fmt.Sprintf("secret scrubbed from image; tampered sealed frame refused (%v)", err)
	}
	return true, "tampered sealed frame accepted"
}

// tamperRestore re-encodes the (mutated) image — recomputing the
// integrity checksum exactly as the attacker would — and restores it
// onto a freshly booted machine.
func tamperRestore(mode repro.Mode, img *snapshot.Image) error {
	data, err := snapshot.Encode(img)
	if err != nil {
		return err
	}
	img2, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	return snapshot.Restore(newSystem(mode), img2)
}
