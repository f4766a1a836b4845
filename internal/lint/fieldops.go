package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fieldPkg is the package whose helpers own all modular arithmetic.
const fieldPkg = "sqm/internal/field"

// AnalyzerFieldOps enforces that modular arithmetic on field.Elem
// routes through internal/field's overflow-safe Mersenne reduction.
// A raw +, -, *, / or % on Elem values (or on values built from the
// field modulus) silently computes in uint64 arithmetic: sums wrap at
// 2^64 instead of reducing mod p = 2^61 - 1, products overflow, and
// the resulting shares decode to garbage only after reconstruction —
// the worst kind of MPC bug. Comparisons and conversions are fine;
// arithmetic must use field.Add/Sub/Neg/Mul/Exp/Inv.
var AnalyzerFieldOps = &Analyzer{
	Name: "fieldops",
	Doc:  "raw arithmetic on field.Elem or the field modulus outside internal/field; use field.Add/Sub/Mul/... helpers",
	Run:  runFieldOps,
}

// arithmeticOps are the binary operators that perform arithmetic (as
// opposed to comparison, logic, or bit shifting by a plain count).
var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true, token.REM: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true, token.REM_ASSIGN: true,
}

func runFieldOps(pass *Pass) {
	if pass.PkgPath == fieldPkg {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if arithmeticOps[n.Op] && (pass.isFieldArith(n.X) || pass.isFieldArith(n.Y)) {
					pass.Reportf(n.OpPos, "raw operator %s on field.Elem outside internal/field; use field helpers for modular arithmetic", n.Op)
				}
			case *ast.AssignStmt:
				if arithmeticOps[n.Tok] {
					for _, lhs := range n.Lhs {
						if pass.isFieldArith(lhs) {
							pass.Reportf(n.TokPos, "raw operator %s on field.Elem outside internal/field; use field helpers for modular arithmetic", n.Tok)
							break
						}
					}
				}
			case *ast.IncDecStmt:
				if pass.isFieldArith(n.X) {
					pass.Reportf(n.TokPos, "raw operator %s on field.Elem outside internal/field; use field helpers for modular arithmetic", n.Tok)
				}
			case *ast.UnaryExpr:
				if n.Op == token.SUB && pass.isFieldArith(n.X) {
					pass.Reportf(n.OpPos, "raw negation of field.Elem outside internal/field; use field.Neg")
				}
			}
			return true
		})
	}
}

// isFieldArith reports whether expr is a field.Elem value or a direct
// use of the field modulus constant — the operands whose arithmetic
// must go through internal/field.
func (p *Pass) isFieldArith(expr ast.Expr) bool {
	if tv, ok := p.Info.Types[expr]; ok && isNamedType(tv.Type, fieldPkg, "Elem") {
		return true
	}
	return p.usesFieldModulus(expr)
}

// usesFieldModulus reports whether expr is (an identifier or selector
// resolving to) the Modulus constant of internal/field.
func (p *Pass) usesFieldModulus(expr ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return false
	}
	c, ok := obj.(*types.Const)
	return ok && c.Name() == "Modulus" && c.Pkg() != nil && c.Pkg().Path() == fieldPkg
}

// isNamedType reports whether t (after stripping aliases) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
