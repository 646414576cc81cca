package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// TestAnalyzersOnFixture runs the suite over the fixture module, which
// plants one violation per rule plus the two deliberate non-violations
// (the panic-inside-map-range exclusion and the write to package state
// in init).
func TestAnalyzersOnFixture(t *testing.T) {
	findings, err := lint.Run(filepath.Join("testdata", "modroot"), lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	want := []struct {
		analyzer string
		line     int
	}{
		{"nodeterm", 5},     // math/rand import
		{"nodeterm", 12},    // time.Now
		{"maprange", 15},    // fmt.Println inside map range
		{"globalwrite", 29}, // sink = n outside init
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != w.analyzer || f.Pos.Line != w.line {
			t.Errorf("finding %d: got %s at line %d, want %s at line %d (%s)",
				i, f.Analyzer, f.Pos.Line, w.analyzer, w.line, f)
		}
		if base := filepath.Base(f.Pos.Filename); base != "bad.go" {
			t.Errorf("finding %d: in %s, want bad.go", i, base)
		}
	}
}

// TestDeterministicCoreScope: the cmd tree of the fixture uses
// time.Now and map-range printing, which the scoped analyzers must
// ignore — the previous test's findings all came from internal/hw.
// This guards the Match predicates themselves.
func TestDeterministicCoreScope(t *testing.T) {
	findings, err := lint.Run(filepath.Join("testdata", "modroot"), lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		if strings.Contains(filepath.ToSlash(f.Pos.Filename), "cmd/tool") {
			t.Errorf("scoped analyzer leaked into the cmd tree: %s", f)
		}
	}
}

// globalWriteFixture is a module in which every line globalwrite must
// report carries a "// flagged" comment: plain, compound and ++/--
// writes, writes through a field, an index, a slice or a pointer, a
// write to another package's variable, and pointer-receiver calls on an
// addressable variable. Writes in init, to a local that shadows a
// package variable, and pointer-receiver calls through a pointer
// variable stay unreported.
var globalWriteFixture = map[string]string{
	"go.mod": "module repro\n\ngo 1.22\n",
	"internal/state/state.go": `// Package state plants every write globalwrite must report (marked
// "flagged") beside reads and local writes it must not.
package state

import (
	"sync"
	"sync/atomic"
)

type config struct {
	n int
	m map[string]int
}

func (c *config) get() int { return c.n }

var Exported int // written from ../other

var (
	count int
	cfg   config
	table = map[string]int{}
	list  = make([]int, 4)
	ptr   = &config{}
	arr   [4]int
	mu    sync.Mutex
	cur   atomic.Value
)

func init() {
	count = 1
	mu.Lock()
}

func Writes(k string) {
	count = 2       // flagged
	count++         // flagged
	count += 3      // flagged
	cfg.n = 4       // flagged
	table[k] = 5    // flagged
	list[1:][0] = 6 // flagged
	ptr.n = 7       // flagged
	(*ptr).m[k] = 8 // flagged
	arr[1]--        // flagged
	mu.Lock()       // flagged
	cur.Store(k)    // flagged
}

func Reads(k string) int {
	count := 0 // shadows the package variable
	count++
	p := ptr
	p = nil
	return count + table[k] + len(list) + arr[0] + cfg.n + ptr.get() + p.n
}
`,
	"internal/other/other.go": `package other

import "repro/internal/state"

func Set() { state.Exported = 1 } // flagged
`,
}

// TestGlobalWriteForms runs globalwrite alone over globalWriteFixture
// and requires exactly the marked lines to be reported.
func TestGlobalWriteForms(t *testing.T) {
	root := t.TempDir()
	want := map[string]bool{}
	for name, src := range globalWriteFixture {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(src, "\n") {
			if strings.HasSuffix(line, "// flagged") {
				want[fmt.Sprintf("%s:%d", filepath.Base(name), i+1)] = true
			}
		}
	}
	findings, err := lint.Run(root, []*analysis.Analyzer{lint.GlobalWrite})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	got := map[string]bool{}
	for _, f := range findings {
		k := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		if !want[k] {
			t.Errorf("unexpected finding: %s", f)
		}
		got[k] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: write not reported", k)
		}
	}
	if len(want) != 12 {
		t.Errorf("fixture marks %d lines, want 12", len(want))
	}
}
