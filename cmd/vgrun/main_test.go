package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/snapshot"
)

// writeImages encodes a booted machine's image into dir three ways: as
// is, cut in half, and with its version field bumped under a recomputed
// checksum (so only the version check can refuse it).
func writeImages(t *testing.T, dir string) (plain, truncated, otherVersion string) {
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
	return plain, truncated, otherVersion
}

// TestCheckFlagsSnapshot drives the -snapshot validation against real
// image files: a valid image, a missing, a truncated and a
// version-mismatched one, and every malformed flag shape.
func TestCheckFlagsSnapshot(t *testing.T) {
	dir := t.TempDir()
	plain, truncated, otherVersion := writeImages(t, dir)
	missing := filepath.Join(dir, "nonexistent.vgsnap")

	cases := []struct {
		name     string
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
		{name: "unknown snapshot verb", snap: "load=" + plain, wantErr: "-snapshot wants save=PATH or use=PATH"},
		{name: "missing path", snap: "use=", wantErr: "-snapshot wants save=PATH or use=PATH"},
		{name: "bare path without verb", snap: plain, wantErr: "-snapshot wants save=PATH or use=PATH"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := checkFlags(tc.snap)
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
