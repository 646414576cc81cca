package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/hw"
	"repro/internal/snapshot"
)

// writeImages encodes a booted native one-CPU machine's image into dir
// four ways: as is, cut in half, with its version field bumped under a
// recomputed checksum (so only the version check can refuse it), and
// with the machine state left out.
func writeImages(t *testing.T, dir string) (plain, truncated, otherVersion, noMachine string) {
	t.Helper()
	sys, err := repro.NewSystem(repro.Native)
	if err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Capture(sys)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	data, err := snapshot.Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	plain = write("plain.vgsnap", data)
	truncated = write("truncated.vgsnap", data[:len(data)/2])

	// Layout: magic(8) | version(4 LE) | flags(4 LE) | payload | sha256.
	bumped := append([]byte(nil), data[:len(data)-sha256.Size]...)
	bumped[8]++
	sum := sha256.Sum256(bumped)
	otherVersion = write("bumped.vgsnap", append(bumped, sum[:]...))

	empty, err := snapshot.Encode(&snapshot.Image{Mode: repro.Native})
	if err != nil {
		t.Fatal(err)
	}
	noMachine = write("nomachine.vgsnap", empty)
	return plain, truncated, otherVersion, noMachine
}

// TestCheckFlagsSnapshot drives the -snapshot validation against real
// image files: a valid image, a missing, a truncated and a
// version-mismatched one, one without machine state, the valid image
// under another -mode or -cpus, and every malformed flag shape. An
// image checkFlags loads is then restored onto a machine booted as
// main boots it, so the cases that only Restore can refuse (no machine
// state, another mode, another CPU count) go through vgrun's restore
// step. Cases run with -mode native -cpus 1 unless they say otherwise.
func TestCheckFlagsSnapshot(t *testing.T) {
	dir := t.TempDir()
	plain, truncated, otherVersion, noMachine := writeImages(t, dir)
	missing := filepath.Join(dir, "nonexistent.vgsnap")

	cases := []struct {
		name     string
		mode     string
		cpus     int
		snap     string
		wantSave string
		wantUse  string
		wantErr  string
	}{
		{name: "no snapshot flags"},
		{name: "save mode needs no existing file", snap: "save=" + missing, wantSave: missing},
		{name: "use mode with a valid image", snap: "use=" + plain, wantUse: plain},
		{name: "use mode with a missing image", snap: "use=" + missing, wantErr: "-snapshot use=" + missing + ": unusable image"},
		{name: "use mode with a truncated image", snap: "use=" + truncated, wantErr: "-snapshot use=" + truncated + ": unusable image"},
		{name: "use mode with a version-mismatched image", snap: "use=" + otherVersion, wantErr: "unusable image: snapshot: image version"},
		{name: "use mode with an image without machine state", snap: "use=" + noMachine,
			wantErr: "-snapshot use=" + noMachine + ": unusable image: snapshot: image lacks a section (has machine false"},
		{name: "use mode with an image of another mode", mode: "vghost", snap: "use=" + plain,
			wantErr: "-snapshot use=" + plain + ": unusable image: snapshot: image is a native machine, target is virtualghost"},
		{name: "use mode with an image of another CPU count", cpus: 2, snap: "use=" + plain,
			wantErr: "-snapshot use=" + plain + ": unusable image: hw: snapshot geometry mismatch: image 1 cpus"},
		{name: "unknown snapshot verb", snap: "load=" + plain, wantErr: "-snapshot wants save=PATH or use=PATH"},
		{name: "missing path", snap: "use=", wantErr: "-snapshot wants save=PATH or use=PATH"},
		{name: "bare path without verb", snap: plain, wantErr: "-snapshot wants save=PATH or use=PATH"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mode, cpus := tc.mode, tc.cpus
			if mode == "" {
				mode = "native"
			}
			if cpus == 0 {
				cpus = 1
			}
			plan, err := checkFlags(mode, cpus, tc.snap)
			if err == nil && plan.image != nil {
				cfg := hw.DefaultConfig()
				cfg.NumCPUs = cpus
				sys, bootErr := repro.NewSystemWithOptions(plan.mode, repro.Options{Machine: cfg})
				if bootErr != nil {
					t.Fatal(bootErr)
				}
				err = restore(sys, plan)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if plan.save != tc.wantSave || plan.use != tc.wantUse {
				t.Errorf("got save=%q use=%q, want save=%q use=%q",
					plan.save, plan.use, tc.wantSave, tc.wantUse)
			}
			if (plan.image != nil) != (tc.wantUse != "") {
				t.Errorf("image loaded=%v, want %v", plan.image != nil, tc.wantUse != "")
			}
		})
	}
}

// TestCheckFlagsModeAndCPUs: every -mode name maps to its mode at one
// and two CPUs; an unknown mode and a CPU count below 1 are refused.
func TestCheckFlagsModeAndCPUs(t *testing.T) {
	for _, tc := range []struct {
		mode    string
		cpus    int
		want    repro.Mode
		wantErr string
	}{
		{mode: "native", cpus: 1, want: repro.Native},
		{mode: "vghost", cpus: 2, want: repro.VirtualGhost},
		{mode: "shadow", cpus: 1, want: repro.Shadow},
		{mode: "bogus", cpus: 1, wantErr: `vgrun: unknown -mode "bogus"`},
		{mode: "vghost", cpus: 0, wantErr: "vgrun: -cpus must be at least 1, got 0"},
		{mode: "vghost", cpus: -3, wantErr: "vgrun: -cpus must be at least 1, got -3"},
	} {
		plan, err := checkFlags(tc.mode, tc.cpus, "")
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("-mode %s -cpus %d: want error containing %q, got %v", tc.mode, tc.cpus, tc.wantErr, err)
			}
			continue
		}
		if err != nil || plan.mode != tc.want {
			t.Errorf("-mode %s -cpus %d: got mode %v, err %v; want %v", tc.mode, tc.cpus, plan.mode, err, tc.want)
		}
	}
}
