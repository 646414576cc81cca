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
	breakdown := flag.Bool("breakdown", false, "print per-tag cycle attribution and the per-syscall profile")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of tagged charges")
	snapshotFlag := flag.String("snapshot", "", "save=PATH writes the post-boot state to a snapshot image; use=PATH restores one before the workload")
	flag.Parse()

	plan, err := checkFlags(*modeFlag, *cpus, *snapshotFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := hw.DefaultConfig()
	cfg.NumCPUs = *cpus
	sys, err := repro.NewSystemWithOptions(plan.mode, repro.Options{Machine: cfg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	k := sys.Kernel

	// -snapshot save= writes the post-boot state before the workload;
	// -snapshot use= restores a saved image into this machine before it.
	// The image holds the RNG state with the rest of the machine, so a
	// restored run repeats the saved one.
	switch {
	case plan.save != "":
		img, err := snapshot.Capture(sys)
		if err != nil {
			fatal(err)
		}
		data, err := snapshot.Encode(img)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(plan.save, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote snapshot %s (%d bytes)\n", plan.save, len(data))
	case plan.image != nil:
		if err := restore(sys, plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("restored %s at %d cycles\n", plan.use, k.M.Clock.Cycles())
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

	fmt.Printf("mode=%v cpus=%d virtual time=%.3f ms syscalls=%d\n",
		plan.mode, k.NumCPUs(), hw.Seconds(k.M.Clock.Cycles()-start)*1e3, k.Stats().Syscalls)
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

// runPlan is vgrun's validated -mode and -snapshot request.
type runPlan struct {
	mode  repro.Mode
	save  string          // -snapshot save=PATH: write the post-boot image to PATH
	use   string          // -snapshot use=PATH: restore PATH before the workload
	image *snapshot.Image // the use= image, loaded and verified
}

// checkFlags refuses a bad -mode, -cpus or -snapshot value before
// anything boots; main exits 2 on its error. A use= image is loaded
// here, once, so a missing, corrupt or version-mismatched file fails
// at flag time.
func checkFlags(modeName string, cpus int, snap string) (runPlan, error) {
	var plan runPlan
	switch modeName {
	case "native":
		plan.mode = repro.Native
	case "vghost":
		plan.mode = repro.VirtualGhost
	case "shadow":
		plan.mode = repro.Shadow
	default:
		return plan, fmt.Errorf("vgrun: unknown -mode %q (want native, vghost or shadow)", modeName)
	}
	if cpus < 1 {
		return plan, fmt.Errorf("vgrun: -cpus must be at least 1, got %d", cpus)
	}
	if snap == "" {
		return plan, nil
	}
	verb, path, ok := strings.Cut(snap, "=")
	if !ok || path == "" || (verb != "save" && verb != "use") {
		return plan, fmt.Errorf("vgrun: -snapshot wants save=PATH or use=PATH, got %q", snap)
	}
	if verb == "save" {
		plan.save = path
		return plan, nil
	}
	img, err := snapshot.Load(path)
	if err != nil {
		return plan, fmt.Errorf("vgrun: -snapshot use=%s: unusable image: %v", path, err)
	}
	plan.use, plan.image = path, img
	return plan, nil
}

// restore applies the use= image to the booted sys. Restore refuses an
// unusable image before it changes anything; main exits 2 on the error.
func restore(sys *repro.System, plan runPlan) error {
	if err := snapshot.Restore(sys, plan.image); err != nil {
		return fmt.Errorf("vgrun: -snapshot use=%s: unusable image: %v", plan.use, err)
	}
	return nil
}
