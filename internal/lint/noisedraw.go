package lint

import (
	"go/ast"
	"go/types"
)

// noiseDraws are randx's DP noise samplers, by receiver type and method.
var noiseDraws = map[string]map[string]bool{
	"RNG": {
		"Skellam": true, "SkellamVec": true,
		"DiscreteGaussian": true, "DiscreteGaussianVec": true, "DiscreteLaplace": true,
	},
	"SkellamSampler": {"Add": true},
}

// noiseDrawPkgs may draw DP noise directly: the samplers' own package,
// the ledger's (dp.Noise.Draw), the auditor that samples a mechanism to
// test it, the ablation tables and the benchmark's replica.
var noiseDrawPkgs = map[string]bool{
	randxPkg:             true,
	"sqm/internal/dp":    true,
	"sqm/internal/audit": true,
	"sqm/cmd/sqmaudit":   true,
	"sqm/internal/bench": true,
	"sqm/benchmark":      true,
}

// AnalyzerNoiseDraw keeps the DP ledger a type (paper Lemmas 10–11: the
// booked ε holds only if every release composes). A release's noise is a
// dp.Noise, whose integers open only to the dp.Booking that
// Accountant.AddSkellam or AddSubsampledSkellam returns, so the compiler
// refuses a release that reads its noise without booking it. A raw draw
// from randx would get round that: outside the packages that sample
// noise for a reason of their own, using one of randx's noise samplers —
// a call, a method value or a method expression — is a finding.
var AnalyzerNoiseDraw = &Analyzer{
	Name: "noisedraw",
	Doc:  "randx noise sampler used outside randx, dp, audit, sqmaudit, bench and benchmark; draw a release's noise as a dp.Noise",
	Run:  runNoiseDraw,
}

func runNoiseDraw(pass *Pass) {
	if noiseDrawPkgs[pass.PkgPath] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, name := noiseDrawOf(pass.Info.Uses[sel.Sel]); recv != "" {
				pass.Reportf(sel.Sel.Pos(), "raw noise draw randx.%s.%s outside the ledger's packages; draw a release's noise as a dp.Noise, which opens only to a dp.Booking", recv, name)
			}
			return true
		})
	}
}

// noiseDrawOf returns the receiver type and name of obj when it is one
// of randx's noise samplers, and "" otherwise.
func noiseDrawOf(obj types.Object) (recv, name string) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != randxPkg {
		return "", ""
	}
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return "", ""
	}
	t := types.Unalias(r.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || !noiseDraws[named.Obj().Name()][fn.Name()] {
		return "", ""
	}
	return named.Obj().Name(), fn.Name()
}
