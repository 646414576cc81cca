// Package lint is the repository's determinism analyzer suite: a small
// driver that walks a module tree, parses each package's non-test
// sources (type-checking only when an analyzer asks), and applies the
// analyzers from analyzers.go. cmd/vglint is the command-line front
// end; the root accounting scan test delegates here so `go test ./...`
// enforces a clean tree.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Finding is one analyzer diagnostic, resolved to a file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)",
		filepath.ToSlash(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Run applies the analyzers to every package under root (a module
// directory) and returns the findings sorted by position. Directories
// named .git, testdata, or vendor — and hidden directories — are
// skipped, as are _test.go files: the analyzers police production
// code, and tests legitimately simulate time or print fixtures.
func Run(root string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset: fset, root: root, modPath: modulePath(root),
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
	var findings []Finding
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != root && (name == ".git" || name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		fs, err := runDir(imp, path, analyzers)
		if err != nil {
			return err
		}
		findings = append(findings, fs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	return findings, nil
}

// runDir applies the applicable analyzers to the single package
// directory dir, type-checking through imp when one asks for types.
func runDir(imp *moduleImporter, dir string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	fset := imp.fset
	pkgPath := dirPkgPath(imp.root, imp.modPath, dir)
	var applicable []*analysis.Analyzer
	needTypes := false
	for _, a := range analyzers {
		if a.Match == nil || a.Match(pkgPath) {
			applicable = append(applicable, a)
			needTypes = needTypes || a.NeedTypes
		}
	}
	if len(applicable) == 0 {
		return nil, nil
	}

	files, err := parseDir(fset, dir)
	if err != nil || len(files) == 0 {
		return nil, err
	}

	var pkg *types.Package
	var info *types.Info
	if needTypes {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err = conf.Check(pkgPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", pkgPath, err)
		}
	}

	var findings []Finding
	for _, a := range applicable {
		if a.NeedTypes && pkg == nil {
			continue
		}
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			PkgPath:  pkgPath,
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		if a.NeedTypes {
			pass.Pkg = pkg
			pass.TypesInfo = info
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkgPath, err)
		}
	}
	return findings, nil
}

// parseDir parses the non-test Go files of one package directory.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, e.Name()), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImporter type-checks the linted module's own packages from
// source, each once per run, and hands every other import (the standard
// library) to the source importer. Resolving module paths by directory
// keeps the go command out of the loop: go/build would run `go list`
// for every import of every package.
type moduleImporter struct {
	fset          *token.FileSet
	root, modPath string
	std           types.Importer
	pkgs          map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.modPath == "" || (path != m.modPath && !strings.HasPrefix(path, m.modPath+"/")) {
		return m.std.Import(path)
	}
	files, err := parseDir(m.fset, filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(path, m.modPath))))
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, nil)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// dirPkgPath maps a directory under root to its import path.
func dirPkgPath(root, modPath, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	rel = filepath.ToSlash(rel)
	if modPath == "" {
		return rel
	}
	return modPath + "/" + rel
}

// modulePath reads the module path from root's go.mod ("" when there
// is none — fixture trees in tests).
func modulePath(root string) string {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}
