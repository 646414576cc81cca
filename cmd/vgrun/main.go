// Command vgrun boots a simulated machine in the chosen configuration
// and runs one of the bundled workloads, printing the console
// transcript and timing. It is the quickest way to poke at the system:
//
//	vgrun -mode vghost -app keygen
//	vgrun -mode native -app postmark -n 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/apps/lmbench"
	"repro/internal/apps/postmark"
	"repro/internal/apps/ssh"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/snapshot"
)

func main() {
	modeFlag := flag.String("mode", "vghost", "kernel configuration: native|vghost|shadow")
	app := flag.String("app", "hello", "workload: hello|keygen|postmark|lmbench")
	n := flag.Int("n", 2000, "transaction/iteration count")
	cpus := flag.Int("cpus", 1, "number of simulated CPUs")
	hostpar := flag.Bool("hostpar", false, "run epoch user phases on concurrent host goroutines (needs -cpus > 1; identical results, less wall-clock)")
	breakdown := flag.Bool("breakdown", false, "print per-tag cycle attribution and the per-syscall profile")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of tagged charges")
	snapshotFlag := flag.String("snapshot", "", "save=PATH records the run into a snapshot image (post-boot state + nondeterministic-input trailer); use=PATH restores one before the workload")
	replayFlag := flag.Bool("replay", false, "serve the image's recorded nondeterministic inputs back to the workload (needs -snapshot use= of a recorded image)")
	flag.Parse()

	plan, err := checkFlags(*cpus, *hostpar, *snapshotFlag, *replayFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var mode repro.Mode
	switch *modeFlag {
	case "native":
		mode = repro.Native
	case "vghost":
		mode = repro.VirtualGhost
	case "shadow":
		mode = repro.Shadow
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = *cpus
	sys, err := repro.NewSystemWithOptions(mode, repro.Options{Machine: cfg, HostParallel: *hostpar})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	k := sys.Kernel

	// -snapshot save= captures the post-boot state now and records the
	// workload's nondeterministic inputs (RNG draws, external packets)
	// into the image trailer, written at exit. -snapshot use= restores a
	// previously saved image into this machine before the workload; with
	// -replay the trailer's inputs are served back, re-enacting the
	// recorded run draw for draw.
	var (
		recorder *snapshot.Recorder
		replayer *snapshot.Replayer
		saveImg  *snapshot.Image
	)
	switch {
	case plan.save != "":
		img, err := snapshot.Capture(sys)
		if err != nil {
			fatal(err)
		}
		saveImg = img
		recorder = snapshot.StartRecording(sys)
	case plan.image != nil:
		if err := snapshot.Restore(sys, plan.image); err != nil {
			fatal(err)
		}
		fmt.Printf("restored %s at %d cycles\n", plan.use, k.M.Clock.Cycles())
		if plan.replay {
			replayer = snapshot.StartReplay(sys, plan.image.Record)
		}
	}

	// The tracer attaches after boot (and any restore), so the trace
	// covers exactly the workload whose virtual time is printed below.
	var tracer *hw.Tracer
	if *traceOut != "" {
		tracer = hw.NewTracer(hw.DefaultTraceCapacity)
		sys.Machine.Clock.AttachTracer(tracer)
	}

	start := k.M.Clock.Cycles()

	switch *app {
	case "hello":
		if _, err := k.Spawn("hello", func(p *kernel.Proc) {
			l, err := libc.NewGhosting(p)
			if err != nil {
				p.Exit(1)
			}
			msg, _ := l.Malloc(64)
			l.WriteGhost(msg, []byte("hello from ghost memory\n"))
			fd, _ := l.Open("/dev/console", kernel.ORdWr)
			if _, err := l.Write(fd, msg, 24); err != nil {
				p.Exit(1)
			}
		}); err != nil {
			fatal(err)
		}
		k.RunUntilIdle()
	case "keygen":
		appKey := make([]byte, 32)
		k.M.RNG.Fill(appKey)
		if _, err := k.InstallTrustedProgram("/bin/ssh-keygen", appKey, ssh.KeygenMain); err != nil {
			fatal(err)
		}
		if _, err := k.SpawnProgram("/bin/ssh-keygen"); err != nil {
			fatal(err)
		}
		k.RunUntilIdle()
		names, _ := k.FS.ReadDir("/")
		fmt.Printf("files: %v\n", names)
	case "postmark":
		res := postmark.Run(k, postmark.PaperConfig(*n))
		fmt.Printf("postmark: %d txns in %.3f s (%.0f tps) creates=%d deletes=%d reads=%d appends=%d\n",
			res.Transactions, res.Seconds, res.TPS, res.Creates, res.Deletes, res.Reads, res.Appends)
	case "lmbench":
		fmt.Printf("null syscall: %.3f us\n", lmbench.NullSyscall(k, *n))
		fmt.Printf("open/close:   %.3f us\n", lmbench.OpenClose(k, *n))
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}

	if replayer != nil {
		replayer.Pump()
		rngLeft, netLeft := replayer.Remaining()
		rec := plan.image.Record
		fmt.Printf("replay: served %d/%d rng draws, %d/%d net events\n",
			len(rec.RNGDraws)-rngLeft, len(rec.RNGDraws),
			len(rec.NetEvents)-netLeft, len(rec.NetEvents))
		replayer.Stop()
	}
	if recorder != nil {
		saveImg.Record = recorder.Stop()
		data, err := snapshot.Encode(saveImg)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(plan.save, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote recorded snapshot %s (%d bytes; %d rng draws, %d net events)\n",
			plan.save, len(data), len(saveImg.Record.RNGDraws), len(saveImg.Record.NetEvents))
	}

	fmt.Printf("mode=%v cpus=%d virtual time=%.3f ms syscalls=%d\n",
		mode, k.NumCPUs(), hw.Seconds(k.M.Clock.Cycles()-start)*1e3, k.Stats().Syscalls)
	if k.NumCPUs() > 1 {
		for i, b := range k.CPUBusy() {
			fmt.Printf("cpu%d busy=%.3f ms\n", i, hw.Seconds(b)*1e3)
		}
	}
	for _, line := range sys.Console() {
		fmt.Println("console:", line)
	}

	if *breakdown {
		fmt.Println("cycle breakdown (since boot):")
		for _, s := range k.M.Clock.Ledger().TopShares() {
			fmt.Printf("  %-10s %6.1f%%  %d cycles\n", s.Tag, s.Share*100, s.Cycles)
		}
		if prof := k.SyscallProfile(); len(prof) > 0 {
			fmt.Println("syscall profile (total cycles, desc):")
			for _, s := range prof {
				fmt.Printf("  %-10s calls=%-6d total=%-10d mean=%-8.0f min=%-8d max=%d\n",
					s.Name, s.Count, s.Cycles, s.Mean(), s.Min, s.Max)
			}
		}
	}

	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d events kept, %d dropped)\n",
			*traceOut, len(tracer.Events()), tracer.Dropped())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runPlan is vgrun's validated -snapshot/-replay request.
type runPlan struct {
	save   string          // -snapshot save=PATH: record the run into PATH
	use    string          // -snapshot use=PATH: restore PATH before the workload
	image  *snapshot.Image // the use= image, loaded and verified
	replay bool            // serve image.Record back to the workload
}

// checkFlags refuses a contradictory flag combination before anything
// boots; main exits 2 on its error. A use= image is loaded here, once,
// so a missing, corrupt or version-mismatched file fails at flag time
// and -replay can check that the image carries a record trailer.
func checkFlags(cpus int, hostpar bool, snap string, replay bool) (runPlan, error) {
	var plan runPlan
	if hostpar && cpus <= 1 {
		return plan, fmt.Errorf("vgrun: -hostpar needs multi-CPU machines; pass -cpus > 1")
	}
	if snap != "" {
		verb, path, ok := strings.Cut(snap, "=")
		if !ok || path == "" || (verb != "save" && verb != "use") {
			return plan, fmt.Errorf("vgrun: -snapshot wants save=PATH or use=PATH, got %q", snap)
		}
		if verb == "save" {
			plan.save = path
		} else {
			img, err := snapshot.Load(path)
			if err != nil {
				return plan, fmt.Errorf("vgrun: -snapshot use=%s: unusable image: %v", path, err)
			}
			plan.use, plan.image = path, img
		}
	}
	if replay {
		if plan.image == nil {
			return plan, fmt.Errorf("vgrun: -replay needs an image to replay from; pass -snapshot use=PATH")
		}
		if plan.image.Record == nil {
			return plan, fmt.Errorf("vgrun: -replay needs a recorded image, and %s carries no record trailer", plan.use)
		}
		plan.replay = true
	}
	return plan, nil
}
