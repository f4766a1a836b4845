package lint

import (
	"go/ast"
	"go/types"
)

// invariantPkg is the designated invariant-helper package.
const invariantPkg = "sqm/internal/invariant"

// errorOnlyPkgs are the surfaces untrusted input flows into — the
// public API, the CLI, and internal/protocol's frame codec, which
// parses bytes off the network — so failures must surface as returned
// errors, never panics, not even invariant panics.
var errorOnlyPkgs = map[string]bool{
	"sqm":                   true,
	"sqm/internal/protocol": true,
	"sqm/internal/cli":      true,
}

// AnalyzerPanicPolicy enforces the repo's panic policy: the surfaces
// untrusted input reaches (package sqm, internal/cli, and the frame
// codec internal/protocol, which reads the network) return errors and
// may not panic at all; internal library code may panic
// only on broken internal invariants, and must say so by building the
// payload with invariant.Violation — panic(invariant.Violation(...)).
// A bare panic("...") is indistinguishable from a leftover debug
// crash, cannot be classified by recover sites, and evades the
// error-path review that the distributed protocol's cleanup logic
// depends on.
var AnalyzerPanicPolicy = &Analyzer{
	Name: "panicpolicy",
	Doc:  "panic outside the policy: exported API must return errors; library panics must carry an invariant.Violation payload",
	Run:  runPanicPolicy,
}

func runPanicPolicy(pass *Pass) {
	if pass.PkgPath == invariantPkg {
		return
	}
	strict := errorOnlyPkgs[pass.PkgPath]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !pass.isBuiltinPanic(call) {
				return true
			}
			if strict {
				pass.Reportf(call.Pos(), "panic on an exported API surface; return a wrapped error instead")
				return true
			}
			if len(call.Args) == 1 && pass.isInvariantViolation(call.Args[0]) {
				return true
			}
			pass.Reportf(call.Pos(), "bare panic; broken internal invariants must use panic(invariant.Violation(...)), recoverable failures must return errors")
			return true
		})
	}
}

// isBuiltinPanic reports whether call invokes the predeclared panic.
func (p *Pass) isBuiltinPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// isInvariantViolation reports whether expr is a direct call to
// invariant.Violation.
func (p *Pass) isInvariantViolation(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	return ok && fn.Name() == "Violation" && fn.Pkg() != nil && fn.Pkg().Path() == invariantPkg
}
