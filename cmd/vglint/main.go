// Command vglint runs the repository's determinism analyzer suite
// (internal/lint) over the module tree and exits non-zero on findings:
//
//	vglint            # lint the current module
//	vglint ./...      # same; the Go-style pattern is accepted for muscle memory
//	vglint -root path # lint another module tree
//
// The suite enforces the source-level discipline behind the
// bit-identical-numbers contract: no host time or host randomness in
// the simulation core (nodeterm), no map-order-dependent output
// (maprange), and no writes to package-level variables outside init
// (globalwrite).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module directory to lint")
	flag.Parse()
	// Accept `vglint ./...` — the tree walk covers every package, so
	// any trailing Go package pattern is redundant but harmless.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "vglint: unsupported argument %q (the whole module is always linted; use -root to point elsewhere)\n", arg)
			os.Exit(2)
		}
	}

	findings, err := lint.Run(*root, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "vglint: %v\n", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vglint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
