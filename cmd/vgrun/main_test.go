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

func TestCheckFlagsHostPar(t *testing.T) {
	cases := []struct {
		name    string
		cpus    int
		hostpar bool
		wantErr string // substring of the expected error; empty = success
	}{
		{name: "defaults", cpus: 1},
		{name: "hostpar multi-cpu", cpus: 4, hostpar: true},
		{name: "hostpar single-cpu", cpus: 1, hostpar: true, wantErr: "-hostpar needs multi-CPU machines"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := checkFlags(tc.cpus, tc.hostpar, "", false)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if plan != (runPlan{}) {
				t.Errorf("got %+v, want an empty plan", plan)
			}
		})
	}
}

// writeImages encodes a booted machine's image into dir four ways: as
// is, with a record trailer, cut in half, and with its version field
// bumped under a recomputed checksum (so only the version check can
// refuse it).
func writeImages(t *testing.T, dir string) (plain, recorded, truncated, otherVersion string) {
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

	img.Record = &snapshot.Record{RNGDraws: []uint64{42}}
	if data, err = snapshot.Encode(img); err != nil {
		t.Fatal(err)
	}
	recorded = write("recorded.vgsnap", data)
	return plain, recorded, truncated, otherVersion
}

// TestCheckFlagsSnapshot drives the -snapshot/-replay validation
// against real image files: a valid image, a recorded one, a missing,
// a truncated and a version-mismatched one, and every malformed flag
// shape.
func TestCheckFlagsSnapshot(t *testing.T) {
	dir := t.TempDir()
	plain, recorded, truncated, otherVersion := writeImages(t, dir)
	missing := filepath.Join(dir, "nonexistent.vgsnap")

	cases := []struct {
		name       string
		snap       string
		replay     bool
		wantSave   string
		wantUse    string
		wantReplay bool
		wantErr    string
	}{
		{name: "no snapshot flags"},
		{name: "save mode needs no existing file", snap: "save=" + missing, wantSave: missing},
		{name: "use mode with a valid image", snap: "use=" + plain, wantUse: plain},
		{name: "replay with a recorded image", snap: "use=" + recorded, replay: true, wantUse: recorded, wantReplay: true},
		{name: "use mode with a missing image", snap: "use=" + missing, wantErr: "-snapshot use=" + missing + ": unusable image"},
		{name: "use mode with a truncated image", snap: "use=" + truncated, wantErr: "-snapshot use=" + truncated + ": unusable image"},
		{name: "use mode with a version-mismatched image", snap: "use=" + otherVersion, wantErr: "unusable image: snapshot: image version"},
		{name: "replay with an unrecorded image", snap: "use=" + plain, replay: true, wantErr: "-replay needs a recorded image"},
		{name: "replay without a snapshot", replay: true, wantErr: "-replay needs an image to replay from"},
		{name: "replay with save mode", snap: "save=" + recorded, replay: true, wantErr: "-replay needs an image to replay from"},
		{name: "unknown snapshot verb", snap: "load=" + plain, wantErr: "-snapshot wants save=PATH or use=PATH"},
		{name: "missing path", snap: "use=", wantErr: "-snapshot wants save=PATH or use=PATH"},
		{name: "bare path without verb", snap: plain, wantErr: "-snapshot wants save=PATH or use=PATH"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := checkFlags(1, false, tc.snap, tc.replay)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if plan.save != tc.wantSave || plan.use != tc.wantUse || plan.replay != tc.wantReplay {
				t.Errorf("got save=%q use=%q replay=%v, want save=%q use=%q replay=%v",
					plan.save, plan.use, plan.replay, tc.wantSave, tc.wantUse, tc.wantReplay)
			}
			if (plan.image != nil) != (tc.wantUse != "") {
				t.Errorf("image loaded=%v, want %v", plan.image != nil, tc.wantUse != "")
			}
		})
	}
}
