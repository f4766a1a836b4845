package lint

import (
	"go/ast"
	"go/types"
)

// transportPkg owns the mesh abstraction whose receives the check
// guards.
const transportPkg = "sqm/internal/transport"

// AnalyzerBlockingRecv enforces the fault-tolerance layer's liveness
// rule: a PartyConn.Recv with no receive deadline anywhere in scope
// blocks forever when the peer dies silently, turning a typed abort
// into a hung protocol. A package that calls SetRecvTimeout
// is considered deadline-aware — its receives are bounded by whatever
// policy the package arms (possibly "blocking by configuration", e.g.
// the trusted-simulation default) — so the check is package-scoped:
// it fires only in packages that consume PartyConn.Recv without ever
// touching the deadline API.
var AnalyzerBlockingRecv = &Analyzer{
	Name:     "blockingrecv",
	Doc:      "PartyConn.Recv in a package that never calls SetRecvTimeout; a silently dead peer hangs the receive forever",
	Severity: SeverityWarning,
	Run:      runBlockingRecv,
}

func runBlockingRecv(pass *Pass) {
	// The transport package implements the primitives (its internal
	// receives are the deadline mechanism itself).
	if pass.PkgPath == transportPkg {
		return
	}
	// First sweep: does the package arm receive deadlines anywhere? One
	// SetRecvTimeout call (on a conn or a whole mesh) makes the package
	// deadline-aware.
	armed := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "SetRecvTimeout" {
				armed = true
			}
			return !armed
		})
		if armed {
			return
		}
	}
	// Second sweep: every PartyConn.Recv in an unarmed package is an
	// unbounded wait on a remote party.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Recv" || !pass.isPartyConn(sel.X) {
				return true
			}
			pass.Reportf(call.Pos(), "blocking PartyConn.Recv in a package that never arms SetRecvTimeout; bound it with a receive deadline so a dead peer surfaces as transport.ErrTimeout instead of a hang")
			return true
		})
	}
}

// isPartyConn reports whether expr's static type is the transport
// package's PartyConn interface (or a pointer to a type of that
// package implementing it — concrete conns are unexported, so outside
// internal/transport the interface is the only spelling that occurs).
func (p *Pass) isPartyConn(expr ast.Expr) bool {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := types.Unalias(tv.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	return isNamedType(t, transportPkg, "PartyConn")
}
