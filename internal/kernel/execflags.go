package kernel

import (
	"fmt"
	"strings"
)

// This file centralizes the validation of the execution flags shared
// by cmd/vgrun, cmd/vgbench and cmd/vgattack, so every command refuses
// a contradictory combination with the same clear error.

// ExecFlags carries the raw flag values as the user typed them.
type ExecFlags struct {
	HostPar  bool   // -hostpar
	CPUs     int    // -cpus (validated against -hostpar)
	Snapshot string // -snapshot: "save=PATH" | "use=PATH" (empty means off)
	Replay   bool   // -replay (needs -snapshot use= of a recorded image)
}

// Snapshot modes resolved from the -snapshot flag.
const (
	SnapshotOff  = ""
	SnapshotSave = "save"
	SnapshotUse  = "use"
)

// ExecConfig is the validated execution configuration. HostPar is for
// repro.Options.HostParallel.
type ExecConfig struct {
	HostPar bool
	// SnapshotMode is SnapshotOff, SnapshotSave or SnapshotUse;
	// SnapshotPath is the image path. For SnapshotUse the image file
	// has already been probed: it exists and its header matches this
	// build's format version.
	SnapshotMode string
	SnapshotPath string
	// Replay requests serving the image's recorded nondeterministic
	// inputs; validation guarantees the image's header carries the
	// recorded flag.
	Replay bool
}

// ResolveExecFlags validates the flag combination and resolves it to a
// configuration. Rejected combinations:
//
//   - -hostpar with -cpus <= 1: host-parallel phases need a multi-CPU
//     machine;
//   - malformed -snapshot values, an unusable use= image, and -replay
//     without a recorded image to replay from.
func ResolveExecFlags(f ExecFlags) (ExecConfig, error) {
	var cfg ExecConfig
	if f.HostPar && f.CPUs <= 1 {
		return cfg, fmt.Errorf("kernel: -hostpar needs multi-CPU machines; pass -cpus > 1")
	}
	cfg.HostPar = f.HostPar
	if err := resolveSnapshotFlags(f, &cfg); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// resolveSnapshotFlags validates -snapshot/-replay. A use-mode image is
// probed up front so a missing file and a version-mismatched one fail
// the same way at flag time — one shared diagnostic naming the flag —
// instead of two different errors deep inside a half-started run.
func resolveSnapshotFlags(f ExecFlags, cfg *ExecConfig) error {
	if f.Snapshot != "" {
		mode, path, ok := strings.Cut(f.Snapshot, "=")
		if !ok || path == "" || (mode != SnapshotSave && mode != SnapshotUse) {
			return fmt.Errorf("kernel: -snapshot wants save=PATH or use=PATH, got %q", f.Snapshot)
		}
		cfg.SnapshotMode, cfg.SnapshotPath = mode, path
	}
	if cfg.SnapshotMode == SnapshotUse {
		if _, err := ProbeSnapshotHeader(cfg.SnapshotPath); err != nil {
			return fmt.Errorf("kernel: -snapshot use=%s: unusable image: %v", cfg.SnapshotPath, err)
		}
	}
	if f.Replay {
		if cfg.SnapshotMode != SnapshotUse {
			return fmt.Errorf("kernel: -replay needs an image to replay from; pass -snapshot use=PATH")
		}
		hdr, err := ProbeSnapshotHeader(cfg.SnapshotPath)
		if err != nil {
			return fmt.Errorf("kernel: -snapshot use=%s: unusable image: %v", cfg.SnapshotPath, err)
		}
		if !hdr.Recorded() {
			return fmt.Errorf("kernel: -replay needs a recorded image, and %s carries no record trailer", cfg.SnapshotPath)
		}
		cfg.Replay = true
	}
	return nil
}
