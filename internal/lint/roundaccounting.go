package lint

import (
	"go/ast"
	"go/types"
)

const (
	// bgwPkg owns the evaluator round counters.
	bgwPkg = "sqm/internal/bgw"
	// circuitPkg owns the plan executor, the one component allowed to
	// drive those counters.
	circuitPkg = "sqm/internal/circuit"
)

// AnalyzerRoundAccounting enforces that communication-round accounting
// derives from compiled execution plans, not hand bookkeeping. A
// protocol that calls AdvanceRound() on a BGW evaluator is maintaining
// its own round arithmetic — exactly the pattern the circuit compiler
// replaced, and one that silently drifts from the wire truth the
// moment the gate structure changes. Outside internal/bgw (which owns
// the counters) and internal/circuit (whose executor is the designated
// round driver), protocols must record into a circuit.Builder and let
// the plan's levels define the rounds. Other packages' own
// AdvanceRound methods are not affected.
var AnalyzerRoundAccounting = &Analyzer{
	Name:     "roundaccounting",
	Doc:      "manual AdvanceRound on a BGW evaluator outside internal/bgw and internal/circuit; rounds must derive from compiled plans",
	Severity: SeverityError,
	Run:      runRoundAccounting,
}

func runRoundAccounting(pass *Pass) {
	if pass.PkgPath == bgwPkg || pass.PkgPath == circuitPkg {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "AdvanceRound" {
				return true
			}
			if recv := pass.bgwReceiver(sel.X); recv != "" {
				pass.Reportf(sel.Sel.Pos(), "manual AdvanceRound on %s outside internal/bgw and internal/circuit; record the protocol into a circuit.Builder and let the compiled plan drive round accounting", recv)
			}
			return true
		})
	}
}

// bgwReceiver returns the display name of expr's type when it is a
// named type (or pointer to one) declared in internal/bgw, and ""
// otherwise.
func (p *Pass) bgwReceiver(expr ast.Expr) string {
	tv, ok := p.Info.Types[expr]
	if !ok {
		return ""
	}
	t := types.Unalias(tv.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != bgwPkg {
		return ""
	}
	return "bgw." + obj.Name()
}
