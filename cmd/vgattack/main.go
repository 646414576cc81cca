// Command vgattack runs the paper's §7 security experiments: the
// Kong-style rootkit's two attacks on ssh-agent (direct memory read and
// signal-handler code injection), plus the wider attack-vector suite,
// on both the native and Virtual Ghost configurations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/kernel"
)

func main() {
	cpus := flag.Int("cpus", 2, "CPUs for the SMP attack vectors (stale TLB needs >= 2)")
	only := flag.String("only", "", "comma-separated attack vectors to run (default all): "+
		strings.Join(experiments.SecurityVectorNames(), "|"))
	snapshotFlag := flag.String("snapshot", "", "use=PATH warm-starts the attack systems from a snapshot bundle (identical verdicts; less wall-clock)")
	replayFlag := flag.Bool("replay", false, "serve recorded nondeterministic inputs from the snapshot image (needs -snapshot use= of a recorded image)")
	flag.Parse()
	if *cpus < 2 {
		fmt.Fprintln(os.Stderr, "vgattack: -cpus must be at least 2 (the stale-TLB vector needs a remote CPU)")
		os.Exit(2)
	}
	execCfg, err := kernel.ResolveExecFlags(kernel.ExecFlags{CPUs: *cpus, Snapshot: *snapshotFlag, Replay: *replayFlag})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgattack:", err)
		os.Exit(2)
	}
	switch execCfg.SnapshotMode {
	case kernel.SnapshotSave:
		n, err := experiments.SaveSnapBundle(execCfg.SnapshotPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vgattack: snapshot save:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote snapshot bundle %s (+.vg, +.shadow): %d bytes\n", execCfg.SnapshotPath, n)
	case kernel.SnapshotUse:
		w, err := experiments.UseSnapBundle(execCfg.SnapshotPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vgattack: snapshot use:", err)
			os.Exit(1)
		}
		w.Install()
	}
	var keys []string
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	if len(keys) > 0 {
		fmt.Println("Running selected hostile-OS attack vectors against ssh-agent")
	} else {
		fmt.Println("Running the hostile-OS attack suite against ssh-agent")
	}
	fmt.Println("(every attack is mounted on both configurations)")
	fmt.Println()
	rows, err := experiments.SecurityMatrixSelect(*cpus, keys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgattack:", err)
		os.Exit(2)
	}
	fmt.Print(experiments.FormatSecurity(rows))
	defended := 0
	for _, r := range rows {
		if r.Defended {
			defended++
		}
	}
	fmt.Printf("\n%d/%d attacks succeed natively and are defeated by Virtual Ghost\n",
		defended, len(rows))
}
