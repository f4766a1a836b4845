package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// shareTypes are the named types whose values are secret shares or
// share-correlated material under the distributed-DP threat model: a
// single honest-but-curious party's view must stay share-only, so
// these values must never be rendered into logs, errors, telemetry, or
// ad-hoc transport payloads.
var shareTypes = map[string][]string{
	"sqm/internal/bgw": {"Shared", "SharedVec", "Val", "Vec", "VecPair"},
}

// shareFuncSources are functions whose results are share material
// whatever their types say: additive reshares, the products a terminal
// level keeps at degree 2t (handles, so tainted by type as well; the rows
// say that the unreduced command is a source like any other gate and
// never a sanctioned open) and the unshared input — its owner's slot holds
// the input itself, scaled by a public constant. The row a party publishes
// in an opening stays inside bgw, which may put share material on the
// wire.
var shareFuncSources = map[string]bool{
	"(sqm/internal/bgw.Engine).AdditiveShares":       true,
	"(sqm/internal/bgw.Evaluator).AdditiveShares":    true,
	"(sqm/internal/bgw.Engine).MulBatchUnreduced":    true,
	"(sqm/internal/bgw.Evaluator).MulBatchUnreduced": true,
	"(sqm/internal/bgw.Engine).InputUnshared":        true,
	"(sqm/internal/bgw.Evaluator).InputUnshared":     true,
}

// shareSanitizers are the sanctioned open/reconstruct points: their
// results are public by protocol design (the opened value is the
// output the parties agreed to reveal), so taint stops there.
var shareSanitizers = map[string]bool{
	"(sqm/internal/bgw.Engine).Open":          true,
	"(sqm/internal/bgw.Engine).OpenBatch":     true,
	"(sqm/internal/bgw.Engine).OpenVec":       true,
	"(sqm/internal/bgw.Evaluator).Open":       true,
	"(sqm/internal/bgw.Evaluator).OpenBatch":  true,
	"(sqm/internal/bgw.Evaluator).OpenVec":    true,
	"(sqm/internal/circuit.Result).Opened":    true,
	"(sqm/internal/circuit.Result).OpenedVec": true,
	// Vec.Len is a shape accessor on the share-vector interface: the
	// element count is public protocol metadata (it is checked against
	// the plan and sent in headers), not share material.
	"(sqm/internal/bgw.Vec).Len":                 true,
	"sqm/internal/shamir.Reconstruct":            true,
	"sqm/internal/shamir.ReconstructWithWeights": true,
}

// sinkPkgs are the packages whose calls render arguments into
// human-readable output: the fmt verbs, the standard loggers, and the
// repo's obs telemetry layer (whose Attr constructors and Event
// payloads end up on an operator's console or a metrics endpoint).
var sinkPkgs = map[string]bool{
	"fmt":              true,
	"log":              true,
	"log/slog":         true,
	"sqm/internal/obs": true,
}

// attrTypes marks result types that make any function a telemetry sink
// regardless of its package: a helper returning an obs.Attr (alone or
// inside a slice/struct) is an attribute constructor, and a share
// flowing into it ends up on the same console/dump surface as a direct
// obs call — flight-recorder JSONL dumps included.
var attrTypes = map[string][]string{
	"sqm/internal/obs": {"Attr"},
}

// transportExemptPkgs may put share material on the wire: carrying
// shares between parties is exactly what the BGW protocol core does. Everything else that serializes a share into a transport payload
// is exfiltrating it past the protocol's accounting.
var transportExemptPkgs = map[string]bool{
	"sqm/internal/bgw":       true,
	"sqm/internal/shamir":    true,
	"sqm/internal/transport": true,
}

// AnalyzerShareTaint enforces the share-confidentiality invariant of
// the distributed-DP threat model interprocedurally: Shamir/BGW shares
// are information-theoretically useless alone but catastrophic in
// aggregate, and a debug log line is an aggregation
// channel the protocol does not account for. Share-typed values — and
// values derived from them through any call depth — reaching fmt, log,
// slog, obs, Attr-returning helpers, or transport Send payloads
// outside the protocol cores are flagged with the full call-path
// witness. It supersedes the local-only secretleak analyzer of PR 3.
var AnalyzerShareTaint = &Analyzer{
	Name:      "sharetaint",
	Doc:       "secret share material (bgw share types and derived values) reaching fmt/log/slog/obs or transport payloads through any call depth",
	Severity:  SeverityError,
	RunModule: runShareTaint,
	Explain: &Explanation{
		Invariant: "A single party's view must stay share-only: no secret share or value derived from one may reach a formatting, logging, telemetry, or out-of-protocol transport sink, at any call depth. Logs and metrics are aggregation channels the privacy proof does not account for.",
		Sources: []string{
			"values of type bgw.Shared, bgw.SharedVec, bgw.Val, bgw.Vec, bgw.VecPair (directly or inside containers/structs)",
			"results of (bgw.Engine).AdditiveShares, (bgw.Evaluator).AdditiveShares, (bgw.Engine).MulBatchUnreduced, (bgw.Evaluator).MulBatchUnreduced, (bgw.Engine).InputUnshared and (bgw.Evaluator).InputUnshared",
		},
		Sinks: []string{
			"any call into fmt, log, log/slog, or sqm/internal/obs",
			"any function returning obs.Attr (attribute constructors are telemetry)",
			"transport Send/SendN payloads outside bgw, shamir, transport",
		},
		Sanitizers: []string{
			"sanctioned opens: (bgw.Engine).Open/OpenBatch/OpenVec, the Evaluator open surface, circuit.Result.Opened*, shamir.Reconstruct*",
		},
		Example: `bgw.go:12:3: sharetaint: secret share material flows to fmt sink [sqm/internal/bgw.Shared param s of describe (fix.go:9) → param v of render (fix.go:14) → sink (fix.go:5)]`,
	},
}

func runShareTaint(mp *ModulePass) {
	m := mp.Module
	res := m.Propagate(TaintSpec{
		TypeSources: shareTypes,
		FuncSources: shareFuncSources,
		Sanitizers:  shareSanitizers,
	})
	for _, cs := range m.Calls {
		label := shareSinkLabel(cs)
		if label == "" {
			continue
		}
		for _, arg := range cs.Call.Args {
			tv, ok := cs.Pkg.Info.Types[arg]
			if ok && tv.Type != nil {
				if name, leak := containsNamedType(tv.Type, shareTypes); leak {
					if label == "transport payload" {
						mp.Reportf(arg.Pos(), "secret share value of type %s written to a transport payload outside the protocol cores; shares cross the wire only inside bgw/shamir", name)
					} else {
						mp.Reportf(arg.Pos(), "secret share value of type %s reaches a formatting/telemetry sink; shares must never be logged", name)
					}
					continue
				}
			}
			if n, w := firstTainted(m, res, cs.Pkg, cs.Fn, arg); n != nil {
				mp.Reportf(arg.Pos(), "secret share material flows to %s sink through an interprocedural path; shares must never leave the party [%s → sink (%s)]",
					label, w, m.PosString(arg.Pos()))
			}
		}
	}
}

// firstTainted returns the first tainted leaf of expr and its witness.
func firstTainted(m *Module, res *TaintResult, pkg *Package, fn *types.Func, expr ast.Expr) (*node, string) {
	for _, n := range m.Leaves(pkg, fn, expr) {
		if res.Tainted(n) {
			return n, res.Witness(n)
		}
	}
	return nil, ""
}

// shareSinkLabel classifies a call as a sharetaint sink ("" if not):
// formatting/logging/obs packages, Attr-returning helpers, and
// transport sends outside the exempt protocol cores.
func shareSinkLabel(cs *CallSite) string {
	fn := cs.Callee
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && sinkPkgs[fn.Pkg().Path()] {
		if fn.Pkg().Path() == "sqm/internal/obs" {
			return "obs telemetry"
		}
		return fn.Pkg().Path()
	}
	if isTransportSend(fn) {
		if transportExemptPkgs[cs.Pkg.Path] {
			return ""
		}
		return "transport payload"
	}
	if returnsAttr(fn) {
		return "obs.Attr constructor"
	}
	return ""
}

// isTransportSend reports whether fn is a Send/SendN method declared on
// a type (or interface) of the transport package.
func isTransportSend(fn *types.Func) bool {
	if fn.Name() != "Send" && fn.Name() != "SendN" {
		return false
	}
	return strings.HasPrefix(FuncKey(fn), "(sqm/internal/transport.")
}

// returnsAttr reports whether any of fn's results contains obs.Attr.
func returnsAttr(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if _, attr := containsNamedType(sig.Results().At(i).Type(), attrTypes); attr {
			return true
		}
	}
	return false
}

// containsSecretType reports whether t is, or structurally contains, a
// secret share type, returning the offending type's name.
func containsSecretType(t types.Type) (string, bool) {
	return containsNamedType(t, shareTypes)
}

// containsNamedType reports whether t is, or structurally contains, one
// of the named types in the table (package path -> type names),
// returning the offending type's name. The traversal follows pointers,
// slices, arrays, maps, channels, and struct fields, with a visited set
// to terminate on recursive types.
func containsNamedType(t types.Type, table map[string][]string) (string, bool) {
	return namedWalk(t, table, make(map[types.Type]bool))
}

func namedWalk(t types.Type, table map[string][]string, seen map[types.Type]bool) (string, bool) {
	if seen[t] {
		return "", false
	}
	seen[t] = true
	switch tt := types.Unalias(t).(type) {
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() != nil {
			for _, name := range table[obj.Pkg().Path()] {
				if obj.Name() == name {
					return obj.Pkg().Path() + "." + name, true
				}
			}
		}
		return namedWalk(tt.Underlying(), table, seen)
	case *types.Pointer:
		return namedWalk(tt.Elem(), table, seen)
	case *types.Slice:
		return namedWalk(tt.Elem(), table, seen)
	case *types.Array:
		return namedWalk(tt.Elem(), table, seen)
	case *types.Chan:
		return namedWalk(tt.Elem(), table, seen)
	case *types.Map:
		if name, ok := namedWalk(tt.Key(), table, seen); ok {
			return name, true
		}
		return namedWalk(tt.Elem(), table, seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if name, ok := namedWalk(tt.Field(i).Type(), table, seen); ok {
				return name, true
			}
		}
	}
	return "", false
}
