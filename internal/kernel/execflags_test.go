package kernel

import (
	"os"
	"strings"
	"testing"
)

func TestResolveExecFlags(t *testing.T) {
	cases := []struct {
		name    string
		in      ExecFlags
		want    ExecConfig
		wantErr string // substring of the expected error; empty = success
	}{
		{
			name: "defaults",
			in:   ExecFlags{CPUs: 1},
			want: ExecConfig{},
		},
		{
			name: "hostpar multi-cpu",
			in:   ExecFlags{HostPar: true, CPUs: 4},
			want: ExecConfig{HostPar: true},
		},
		{
			name:    "hostpar single-cpu",
			in:      ExecFlags{HostPar: true, CPUs: 1},
			wantErr: "-hostpar needs multi-CPU machines",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ResolveExecFlags(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestResolveSnapshotFlags drives the -snapshot/-replay validation
// against real image files: well-formed headers, a recorded image, a
// missing file, a wrong-version image, and every malformed flag shape.
func TestResolveSnapshotFlags(t *testing.T) {
	dir := t.TempDir()
	writeImage := func(name string, hdr SnapshotHeader) string {
		t.Helper()
		path := dir + "/" + name
		b := PutSnapshotHeader(hdr)
		if err := os.WriteFile(path, b[:], 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := writeImage("plain.vgsnap", SnapshotHeader{Version: SnapshotImageVersion})
	recorded := writeImage("recorded.vgsnap", SnapshotHeader{Version: SnapshotImageVersion, Flags: SnapshotFlagRecorded})
	oldVersion := writeImage("old.vgsnap", SnapshotHeader{Version: SnapshotImageVersion + 1})
	missing := dir + "/nonexistent.vgsnap"

	cases := []struct {
		name     string
		in       ExecFlags
		wantMode string
		wantPath string
		wantRep  bool
		wantErr  string
	}{
		{
			name: "no snapshot flags",
			in:   ExecFlags{CPUs: 1},
		},
		{
			name:     "save mode needs no existing file",
			in:       ExecFlags{CPUs: 1, Snapshot: "save=" + missing},
			wantMode: SnapshotSave,
			wantPath: missing,
		},
		{
			name:     "use mode with a valid image",
			in:       ExecFlags{CPUs: 1, Snapshot: "use=" + plain},
			wantMode: SnapshotUse,
			wantPath: plain,
		},
		{
			name:     "replay with a recorded image",
			in:       ExecFlags{CPUs: 1, Snapshot: "use=" + recorded, Replay: true},
			wantMode: SnapshotUse,
			wantPath: recorded,
			wantRep:  true,
		},
		{
			name:    "use mode with a missing image",
			in:      ExecFlags{CPUs: 1, Snapshot: "use=" + missing},
			wantErr: "-snapshot use=" + missing + ": unusable image",
		},
		{
			name:    "use mode with a version-mismatched image",
			in:      ExecFlags{CPUs: 1, Snapshot: "use=" + oldVersion},
			wantErr: "-snapshot use=" + oldVersion + ": unusable image",
		},
		{
			name:    "replay with an unrecorded image",
			in:      ExecFlags{CPUs: 1, Snapshot: "use=" + plain, Replay: true},
			wantErr: "-replay needs a recorded image",
		},
		{
			name:    "replay without a snapshot",
			in:      ExecFlags{CPUs: 1, Replay: true},
			wantErr: "-replay needs an image to replay from",
		},
		{
			name:    "replay with save mode",
			in:      ExecFlags{CPUs: 1, Snapshot: "save=" + recorded, Replay: true},
			wantErr: "-replay needs an image to replay from",
		},
		{
			name:    "unknown snapshot verb",
			in:      ExecFlags{CPUs: 1, Snapshot: "load=" + plain},
			wantErr: "-snapshot wants save=PATH or use=PATH",
		},
		{
			name:    "missing path",
			in:      ExecFlags{CPUs: 1, Snapshot: "use="},
			wantErr: "-snapshot wants save=PATH or use=PATH",
		},
		{
			name:    "bare path without verb",
			in:      ExecFlags{CPUs: 1, Snapshot: plain},
			wantErr: "-snapshot wants save=PATH or use=PATH",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ResolveExecFlags(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.SnapshotMode != tc.wantMode || got.SnapshotPath != tc.wantPath || got.Replay != tc.wantRep {
				t.Errorf("got mode=%q path=%q replay=%v, want mode=%q path=%q replay=%v",
					got.SnapshotMode, got.SnapshotPath, got.Replay, tc.wantMode, tc.wantPath, tc.wantRep)
			}
		})
	}
}
