// Package snapshot serializes a whole booted machine — hardware, HAL,
// kernel — into a versioned, checksummed image and reconstructs
// machines from it (DESIGN.md §18).
//
// The subsystem rests on the reproduction's determinism contract: all
// timing flows through the tagged virtual clock and every architectural
// structure is plain data, so the machine is a serializable value. A
// restored machine's subsequent execution is bit-identical to the
// uninterrupted run — asserted against golden_cycles.json and the
// differential suite — which is what makes fork-from-snapshot fan-out
// sound. The image holds the hardware RNG's state too, so a restored
// machine draws the same random values the source would have: restore
// alone repeats a run.
//
// Two operations:
//
//   - Capture/Restore: deep-copy the machine state into an Image /
//     overwrite an equivalently booted machine with it.
//   - Fork: boot a fresh machine and apply the image with copy-on-write
//     page sharing, so N divergent schedules run from one image without
//     copying memory.
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
// load history (kernel.ErrSnapshotStale otherwise), and quiescent. All
// refusals happen before any state is touched; after the pre-flight the
// apply is infallible barring a sealed page that fails authentication,
// which is also checked up front. On success, sys's subsequent
// execution is bit-identical to the run the image was captured from.
func Restore(sys *repro.System, img *Image) error {
	return apply(sys, img, false)
}

// Fork boots a fresh system and restores the image into it with
// copy-on-write page sharing: physical frames and disk blocks alias the
// image's buffers until first write, so N forks of one image cost one
// machine's worth of page copies only where they diverge. The image
// must stay immutable while forks of it are alive. opts must describe
// the same machine configuration the image was captured on (geometry is
// checked; for Virtual Ghost the TPM seed must match too, or the sealed
// pages refuse to open).
func Fork(img *Image, opts repro.Options) (*repro.System, error) {
	sys, err := repro.NewSystemWithOptions(img.Mode, opts)
	if err != nil {
		return nil, err
	}
	if err := apply(sys, img, true); err != nil {
		return nil, err
	}
	return sys, nil
}

// apply is the shared restore path. It never mutates img, so one
// decoded image can be applied to many systems, concurrently.
func apply(sys *repro.System, img *Image, share bool) error {
	if sys.Mode != img.Mode {
		return fmt.Errorf("snapshot: image is a %v machine, target is %v", img.Mode, sys.Mode)
	}
	if err := sys.Kernel.CheckQuiescent(); err != nil {
		return fmt.Errorf("snapshot: restore target: %w", err)
	}
	if err := sys.Kernel.CheckKernelSnap(img.Kernel); err != nil {
		return err
	}
	ss, ok := sys.HAL.(core.SnapshotStateful)
	if !ok {
		return fmt.Errorf("%w: %T", ErrUnsupportedHAL, sys.HAL)
	}
	ms := img.Machine
	if len(img.SealedPages) > 0 {
		sealer, ok := sys.HAL.(core.SnapshotSealer)
		if !ok {
			return fmt.Errorf("snapshot: image carries sealed pages but a %v HAL cannot open them", sys.Mode)
		}
		// Build a private overlay of the page map: the unsealed
		// plaintext pages are fresh buffers, the rest alias the image.
		cp := *img.Machine
		pages := make(map[uint64][]byte, len(img.Machine.Mem.Pages)+len(img.SealedPages))
		for f, b := range img.Machine.Mem.Pages {
			pages[f] = b
		}
		for f, blob := range img.SealedPages {
			plain, err := sealer.OpenSnapshotPage(f, blob)
			if err != nil {
				return fmt.Errorf("snapshot: sealed frame %d refused: %w", f, err)
			}
			if len(plain) != hw.PageSize {
				return fmt.Errorf("snapshot: sealed frame %d opens to %d bytes, want %d", f, len(plain), hw.PageSize)
			}
			pages[f] = plain
		}
		cp.Mem.Pages = pages
		ms = &cp
	}
	if err := sys.Machine.ApplySnap(ms, share); err != nil {
		return err
	}
	if err := ss.ApplyHALSnap(img.HAL); err != nil {
		return err
	}
	return sys.Kernel.ApplyKernelSnap(img.Kernel)
}
