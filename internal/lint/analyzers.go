package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// The reproduction's core contract is bit-identical virtual numbers
// across runs, hosts and optimization levels. These
// analyzers enforce the source-level discipline that keeps the
// contract checkable:
//
//   - nodeterm: the simulation core never reads host time or host
//     randomness, so identical inputs give identical numbers.
//   - maprange: printed/formatted output never iterates a map
//     directly, so transcripts and exported artifacts are stable
//     across runs.
//   - globalwrite: no package-level variable is written after
//     initialisation, so a machine's configuration is exactly what its
//     options say, never a default some earlier caller left behind.

// deterministicCore is the Match set for the determinism analyzers:
// the hardware model, the kernel, and the IR executors. Experiments
// and commands may read host time (they measure host cost); the
// simulation core may not.
func deterministicCore(pkgPath string) bool {
	for _, p := range []string{"repro/internal/hw", "repro/internal/kernel", "repro/internal/vir"} {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the repository's analyzer suite in reporting
// order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{NoDeterm, MapRange, GlobalWrite}
}

// NoDeterm forbids host-nondeterminism sources — time.Now and the
// math/rand generators — in the simulation core. Virtual time comes
// from hw.Clock and randomness from the machine's seeded RNG; host
// time or host randomness in these packages would break the
// bit-identical-numbers contract between runs.
var NoDeterm = &analysis.Analyzer{
	Name:  "nodeterm",
	Doc:   "forbid time.Now and math/rand in the simulation core (hw, kernel, vir)",
	Match: deterministicCore,
	Run: func(pass *analysis.Pass) error {
		for _, file := range pass.Files {
			// Import names of the time package in this file ("time"
			// unless renamed).
			timeNames := map[string]bool{}
			for _, imp := range file.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				switch path {
				case "math/rand", "math/rand/v2":
					pass.Reportf(imp.Pos(),
						"import of %s in the simulation core (use the machine's seeded RNG)", path)
				case "time":
					name := "time"
					if imp.Name != nil {
						name = imp.Name.Name
					}
					timeNames[name] = true
				}
			}
			if len(timeNames) == 0 {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || !timeNames[id.Name] {
					return true
				}
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					pass.Reportf(sel.Sel.Pos(),
						"%s.%s in the simulation core (virtual time comes from hw.Clock)",
						id.Name, sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	},
}

// MapRange flags map iteration that feeds printed or formatted output
// inside the simulation core. Go's map order is deliberately
// randomized, so a fmt call inside a `for k := range m` over a map
// produces run-to-run-varying transcripts; sort the keys first.
// Counting, summing, or rebuilding maps in arbitrary order is fine —
// only iterations whose body prints are flagged.
var MapRange = &analysis.Analyzer{
	Name:      "maprange",
	Doc:       "forbid map-range iteration that feeds printed output in the simulation core",
	Match:     deterministicCore,
	NeedTypes: true,
	Run: func(pass *analysis.Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				ast.Inspect(rng.Body, func(b ast.Node) bool {
					call, ok := b.(*ast.CallExpr)
					if !ok {
						return true
					}
					// A panic fires at most once and then unwinds, so a
					// fmt call feeding it cannot expose iteration order.
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						return false
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok || id.Name != "fmt" {
						return true
					}
					if strings.HasPrefix(sel.Sel.Name, "Print") ||
						strings.HasPrefix(sel.Sel.Name, "Fprint") ||
						strings.HasPrefix(sel.Sel.Name, "Sprint") ||
						strings.HasPrefix(sel.Sel.Name, "Append") {
						pass.Reportf(call.Pos(),
							"fmt.%s inside map-range iteration (map order is randomized; sort the keys first)",
							sel.Sel.Name)
					}
					return true
				})
				return true
			})
		}
		return nil
	},
}

// GlobalWrite forbids writing a package-level variable in any function
// but init, so a machine is configured only through repro.Options and
// never by a default an earlier caller left behind. It reports
// assignments and ++/-- to such a variable, also through a field, an
// index or a pointer, and pointer-receiver method calls on one, which
// take its address (atomic.Value.Store, sync.Mutex.Lock). perfbench/,
// a module of its own whose yardstick is process-wide by design, is
// left out.
var GlobalWrite = &analysis.Analyzer{
	Name:      "globalwrite",
	Doc:       "forbid writes to package-level variables outside init",
	Match:     func(p string) bool { return p != "repro/perfbench" && !strings.HasPrefix(p, "repro/perfbench/") },
	NeedTypes: true,
	Run: func(pass *analysis.Pass) error {
		report := func(e ast.Expr, what string) {
			if v := globalRoot(pass.TypesInfo, e); v != nil {
				pass.Reportf(e.Pos(), "%s package-level variable %s outside init", what, v.Name())
			}
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if n.Tok != token.DEFINE {
								report(lhs, "assignment to")
							}
						}
					case *ast.IncDecStmt:
						report(n.X, n.Tok.String()+" of")
					case *ast.CallExpr:
						if sel, ok := n.Fun.(*ast.SelectorExpr); ok && takesAddress(pass.TypesInfo.Selections[sel]) {
							report(sel.X, sel.Sel.Name+" call on")
						}
					}
					return true
				})
			}
		}
		return nil
	},
}

// takesAddress reports whether s selects a pointer-receiver method
// through a non-pointer operand, so that calling it passes the
// operand's address.
func takesAddress(s *types.Selection) bool {
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
	_, ptrX := s.Recv().Underlying().(*types.Pointer)
	return ptrRecv && !ptrX
}

// globalRoot returns the package-level variable a write to e lands in
// or goes through once fields, indices, slicing, dereferences and
// parentheses are stripped, or nil.
func globalRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				return pkgLevel(v) // pkg.V, another package's variable
			}
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return pkgLevel(v)
		default:
			return nil
		}
	}
}

func pkgLevel(v *types.Var) *types.Var {
	if v == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}
