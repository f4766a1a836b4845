package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerFloatEq enforces tolerance-based floating-point comparison
// in the calibration pipeline. The DP accountant and the mathx root
// finders compose dozens of transcendental operations; two
// mathematically equal quantities routinely differ in the last ulp, so
// a raw == or != encodes an assumption the hardware does not honor. A
// misfired equality in ε(δ) calibration silently loosens the privacy
// guarantee. Non-test code must compare through mathx.EqualWithin
// (tolerance zero is fine where bit-exactness is genuinely intended —
// the helper makes that intent explicit and NaN-safe).
var AnalyzerFloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "== or != between floating-point operands in non-test code; use mathx.EqualWithin",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if pass.isFloat(be.X) || pass.isFloat(be.Y) {
				pass.Reportf(be.OpPos, "floating-point %s comparison; use mathx.EqualWithin (tolerance may be 0 to assert exactness explicitly)", be.Op)
			}
			return true
		})
	}
}

// isFloat reports whether the expression's type is (or has underlying)
// float32, float64, or a complex type.
func (p *Pass) isFloat(expr ast.Expr) bool {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := types.Unalias(tv.Type).Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}
