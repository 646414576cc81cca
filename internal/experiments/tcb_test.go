package experiments

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestTCBSize accounts for the reproduction's trusted computing base the
// way the paper does (§5: "Virtual Ghost currently includes only 5,344
// source lines of code. This count includes the SVA VM run-time system
// and the passes that we added to the compiler").
//
// Our TCB analog is the same set: the VM/SVA-OS runtime
// (internal/core), the instrumenting compiler passes and translator
// (internal/compiler), the virtual instruction set the translator
// consumes (internal/vir), and the crypto the VM trusts
// (internal/vgcrypt). The kernel, libc, apps, and attacks are all
// *untrusted* and excluded — that is the point of the design.
//
// The reference interpreter (internal/vir/virref) is left out: it is
// the oracle the differential tests check the engine against, and no
// production configuration runs it. The test fails if a non-test file
// outside that package imports it, so it cannot become trusted code
// uncounted.
//
// The test enforces a budget and requires EXPERIMENTS.md's
// <!-- tcb --> block to hold this count, so TCB growth is a reviewed
// decision rather than an accident; -update rewrites the block.
func TestTCBSize(t *testing.T) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Skip("no caller info")
	}
	repoRoot := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	tcbPackages := []string{
		"internal/core",
		"internal/compiler",
		// The admission checker is trusted: it is the final arbiter of
		// what enters kernel code space (though a checker bug only
		// *admits* bad code if the passes also misbehave — the two are
		// independent, which is the NaCl-style defense-in-depth).
		"internal/compiler/check",
		"internal/vir",
		"internal/vgcrypt",
	}
	total := 0
	perPkg := map[string]int{}
	for _, pkg := range tcbPackages {
		dir := filepath.Join(repoRoot, pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			n, err := countSLOC(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			perPkg[pkg] += n
			total += n
		}
	}
	var block strings.Builder
	block.WriteString("| TCB package | SLOC |\n|---|---:|\n")
	for _, pkg := range tcbPackages {
		fmt.Fprintf(&block, "| %s | %d |\n", pkg, perPkg[pkg])
	}
	fmt.Fprintf(&block, "| total | %d |\n", total)
	checkDocBlocks(t, map[string]string{"tcb": block.String()})
	t.Logf("TCB total: %d SLOC (paper prototype: 5,344)", total)
	// Budget: the same order of magnitude as the prototype's TCB, and
	// categorically below "a commodity OS plus drivers" (millions).
	const budget = 9000
	if total > budget {
		t.Errorf("TCB grew to %d SLOC (> %d); shrink it or revise this budget deliberately", total, budget)
	}
	if total == 0 {
		t.Errorf("TCB accounting found no code")
	}
	importers, err := virrefImporters(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(importers) > 0 {
		t.Errorf("non-test code imports %s, which the TCB count leaves out: %s",
			virrefPath, strings.Join(importers, ", "))
	}
}

// virrefPath is the reference interpreter's import path.
const virrefPath = "repro/internal/vir/virref"

// virrefImporters lists the non-test .go files under root, outside
// virref itself, that import virref. Directories whose names start
// with "." (build output among them) or are "testdata" are skipped.
func virrefImporters(root string) ([]string, error) {
	own := filepath.Join(root, "internal", "vir", "virref")
	var importers []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == own) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == virrefPath {
				rel, _ := filepath.Rel(root, path)
				importers = append(importers, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	return importers, err
}

// countSLOC counts non-blank, non-comment-only lines (the paper's
// "ignoring comments, whitespace" discipline; block comments that share
// a line with code count as code).
func countSLOC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.TrimSpace(line[idx+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}
