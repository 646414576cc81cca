package experiments

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/snapshot"
)

// TestGoldenForkEquivalence runs the golden suite with every system
// booted and then restored from a post-boot image of its mode, one
// image per mode for all of them: each pinned measurement — value AND
// cumulative cycle counter, boot included — must equal the checked-in
// golden file bit for bit.
func TestGoldenForkEquivalence(t *testing.T) {
	images := make(map[repro.Mode]*snapshot.Image)
	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost, repro.Shadow} {
		img, err := snapshot.Capture(newSystem(mode))
		if err != nil {
			t.Fatal(err)
		}
		images[mode] = img
	}
	restores := 0
	got := collectGolden(func(mode repro.Mode) *repro.System {
		sys := newSystem(mode)
		if err := snapshot.Restore(sys, images[mode]); err != nil {
			t.Fatalf("restore %v: %v", mode, err)
		}
		restores++
		return sys
	})
	if restores == 0 {
		t.Fatal("no system was restored from an image")
	}
	compareGolden(t, got)
}

// TestSnapDifferential runs the cold-vs-warm differential on all three
// configurations and requires byte-identical final machine state, not
// just equal clocks.
func TestSnapDifferential(t *testing.T) {
	rows := SnapDifferential()
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: cold and warm final states differ", r.Config)
		}
		if r.ColdCycles != r.WarmCycles {
			t.Errorf("%s: cold ran to %d cycles, warm to %d", r.Config, r.ColdCycles, r.WarmCycles)
		}
		if r.ImageCycles == 0 || r.ImageCycles >= r.ColdCycles {
			t.Errorf("%s: image cycles %d not inside (0, %d)", r.Config, r.ImageCycles, r.ColdCycles)
		}
		if r.ImageBytes == 0 {
			t.Errorf("%s: empty image", r.Config)
		}
		if r.Config == "vghost" && r.SealedPages == 0 {
			t.Error("vghost image carries no sealed pages; the VM identity frame should travel sealed")
		}
		if r.Config == "native" && r.SealedPages != 0 {
			t.Errorf("native image carries %d sealed pages", r.SealedPages)
		}
	}
	out := FormatSnap(rows)
	if !strings.Contains(out, "vghost") || !strings.Contains(out, "Bit-identical") {
		t.Errorf("FormatSnap output malformed:\n%s", out)
	}
}

// TestSnapTamperDefended is the security-matrix row: decode the image,
// flip protected state, re-checksum (trivial for the OS that stores the
// image), restore. Native accepts the tampered image — the ghost secret
// travels in it as plaintext; Virtual Ghost scrubbed the plaintext and
// refuses the flipped sealed frame.
func TestSnapTamperDefended(t *testing.T) {
	row := vectorRow("snapshot tamper", runSnapTamper)
	if !strings.HasPrefix(row.NativeResult, "STOLEN") {
		t.Errorf("native: want the tampered image accepted, got %q", row.NativeResult)
	}
	if !strings.HasPrefix(row.VGResult, "safe") {
		t.Errorf("vg: want the tampered image refused, got %q", row.VGResult)
	}
	if !row.Defended {
		t.Error("snapshot tamper row not defended")
	}
}

// TestSnapTamperInMatrix checks the vector is registered in the suite.
func TestSnapTamperInMatrix(t *testing.T) {
	for _, name := range SecurityVectorNames() {
		if name == "snap-tamper" {
			return
		}
	}
	t.Fatal("snap-tamper missing from SecurityVectorNames")
}
