// Package snapshot serializes a whole booted machine — hardware, HAL,
// kernel — into a versioned, checksummed image and reconstructs
// machines from it (DESIGN.md §18).
//
// The subsystem rests on the reproduction's determinism contract: all
// timing flows through the tagged virtual clock and every architectural
// structure is plain data, so the machine is a serializable value. A
// restored machine's subsequent execution is bit-identical to the
// uninterrupted run — asserted against golden_cycles.json and the
// differential suite — which is what makes many runs from one image
// sound. The image holds the hardware RNG's state too, so a restored
// machine draws the same random values the source would have: restore
// alone repeats a run.
//
// Capture deep-copies the machine state into an Image; Restore
// overwrites an equivalently booted machine with it. An image is data
// the OS stores and can rewrite, so Restore checks all of it before it
// changes anything, then applies it with code that cannot fail.
//
// Snapshots are taken at quiescent points only: processes are host
// goroutines whose stacks cannot be serialized, so Capture refuses
// (kernel.ErrNotQuiescent) until the kernel has drained. On an SMP
// machine a quiescent point is by construction an epoch barrier of the
// epoch/barrier scheduler, so SMP images restore exactly like
// single-CPU ones.
package snapshot

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// Image is one machine's decoded snapshot. The JSON encoding of this
// struct (wrapped in the checksummed envelope, encode.go) is the image
// payload; field names are part of the format and changes require an
// imageVersion bump (encode.go).
//
// For Virtual Ghost machines, frames the OS must never read — ghost
// memory and SVA-internal frames — do not appear in Machine.Mem.Pages;
// they travel in SealedPages, encrypted under a TPM-rooted key that is
// not in the image (core.SnapshotSealer). Native and shadow images
// carry every frame in plaintext: that exposure is the paper's point,
// and the tampered-snapshot security row demonstrates it.
type Image struct {
	Mode        core.Mode          `json:"mode"`
	Machine     *hw.MachineSnap    `json:"machine"`
	HAL         *core.HALSnap      `json:"hal"`
	Kernel      *kernel.KernelSnap `json:"kernel"`
	SealedPages map[uint64][]byte  `json:"sealed_pages,omitempty"`
}

// ErrUnsupportedHAL reports a HAL that does not implement snapshotting.
var ErrUnsupportedHAL = errors.New("snapshot: HAL does not support snapshot/restore")

// Capture serializes sys into an in-memory Image. The system must be
// quiescent (kernel.ErrNotQuiescent otherwise); it is not modified and
// may keep running afterwards.
func Capture(sys *repro.System) (*Image, error) {
	ks, err := sys.Kernel.CaptureKernelSnap()
	if err != nil {
		return nil, err
	}
	ss, ok := sys.HAL.(core.SnapshotStateful)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedHAL, sys.HAL)
	}
	hs, err := ss.CaptureHALSnap()
	if err != nil {
		return nil, err
	}
	ms, err := sys.Machine.CaptureSnap()
	if err != nil {
		return nil, err
	}
	img := &Image{Mode: sys.Mode, Machine: ms, HAL: hs, Kernel: ks}
	if sealer, ok := sys.HAL.(core.SnapshotSealer); ok {
		if err := sealProtectedPages(img, sealer); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// sealProtectedPages moves ghost and SVA-internal frame contents out of
// the plaintext page map into the sealed section.
func sealProtectedPages(img *Image, sealer core.SnapshotSealer) error {
	for f, b := range img.Machine.Mem.Pages {
		t := hw.FrameType(img.Machine.Mem.FType[f])
		if t != hw.FrameGhost && t != hw.FrameSVA {
			continue
		}
		blob, err := sealer.SealSnapshotPage(f, b)
		if err != nil {
			return fmt.Errorf("snapshot: sealing frame %d: %w", f, err)
		}
		if img.SealedPages == nil {
			img.SealedPages = make(map[uint64][]byte)
		}
		img.SealedPages[f] = blob
		delete(img.Machine.Mem.Pages, f)
	}
	return nil
}

// Restore overwrites sys's state with the image's. The target must be
// an equivalently booted machine: same mode, same geometry, same module
// load history (kernel.ErrSnapshotStale otherwise), and quiescent.
// Restore runs in two phases. The first checks the whole image — its
// sections, mode and sealed pages, then what the machine, the HAL and
// the kernel would index or size by — and returns any refusal before
// the target changes. The second applies the image and cannot fail. img
// is never changed, so one decoded image can restore many systems. On
// success, sys's subsequent execution is bit-identical to the run the
// image was captured from.
func Restore(sys *repro.System, img *Image) error {
	ms, err := check(sys, img)
	if err != nil {
		return err
	}
	sys.Machine.ApplySnap(ms)
	sys.HAL.(core.SnapshotStateful).ApplyHALSnap(img.HAL)
	sys.Kernel.ApplyKernelSnap(img.Kernel)
	return nil
}

// check is Restore's first phase. It returns the machine state to
// apply: the image's own, or, when the image carries sealed pages, a
// copy whose page map also holds their opened plaintext.
func check(sys *repro.System, img *Image) (*hw.MachineSnap, error) {
	switch {
	case img.Machine == nil || img.HAL == nil || img.Kernel == nil:
		return nil, fmt.Errorf("snapshot: image lacks a section (has machine %t, HAL %t, kernel %t)", img.Machine != nil, img.HAL != nil, img.Kernel != nil)
	case sys.Mode != img.Mode:
		return nil, fmt.Errorf("snapshot: image is a %v machine, target is %v", img.Mode, sys.Mode)
	}
	if err := sys.Kernel.CheckQuiescent(); err != nil {
		return nil, fmt.Errorf("snapshot: restore target: %w", err)
	}
	ss, ok := sys.HAL.(core.SnapshotStateful)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedHAL, sys.HAL)
	}
	ms := img.Machine
	if len(img.SealedPages) > 0 {
		sealer, ok := sys.HAL.(core.SnapshotSealer)
		if !ok {
			return nil, fmt.Errorf("snapshot: image carries sealed pages but a %v HAL cannot open them", sys.Mode)
		}
		cp := *img.Machine
		cp.Mem.Pages = make(map[uint64][]byte, len(img.Machine.Mem.Pages)+len(img.SealedPages))
		maps.Copy(cp.Mem.Pages, img.Machine.Mem.Pages)
		frames := make([]uint64, 0, len(img.SealedPages))
		for f := range img.SealedPages {
			frames = append(frames, f)
		}
		slices.Sort(frames) // a refusal names the lowest frame that fails
		for _, f := range frames {
			plain, err := sealer.OpenSnapshotPage(f, img.SealedPages[f])
			if err != nil {
				return nil, fmt.Errorf("snapshot: sealed frame %d refused: %w", f, err)
			}
			cp.Mem.Pages[f] = plain
		}
		ms = &cp
	}
	if err := sys.Machine.CheckSnap(ms); err != nil {
		return nil, err
	}
	if err := ss.CheckHALSnap(img.HAL); err != nil {
		return nil, err
	}
	if err := sys.Kernel.CheckKernelSnap(img.Kernel); err != nil {
		return nil, err
	}
	return ms, nil
}
