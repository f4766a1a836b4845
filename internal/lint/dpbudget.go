package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// dpNoiseSources are the DP mechanism draws of the paper's distributed
// mechanism: every value derived from one is a privacy release in the
// making. (The continuous Gaussian samplers are
// deliberately absent — they are dual-use: weight init, synthetic data,
// and power iteration draw from the same RNG surface.)
var dpNoiseSources = map[string]bool{
	"(sqm/internal/randx.RNG).Skellam":             true,
	"(sqm/internal/randx.RNG).SkellamVec":          true,
	"(sqm/internal/randx.SkellamSampler).Add":      true,
	"(sqm/internal/randx.RNG).DiscreteGaussian":    true,
	"(sqm/internal/randx.RNG).DiscreteGaussianVec": true,
	"(sqm/internal/randx.RNG).DiscreteLaplace":     true,
}

// dpPrintSinks are the fmt functions that write (Sprint* only formats;
// the string it builds keeps the taint and is caught when printed).
var dpPrintSinks = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
}

// dpSinkPkgs release values wholesale: loggers, telemetry, and the
// CSV/model writers the CLIs persist results with.
var dpSinkPkgs = map[string]bool{
	"log":                  true,
	"log/slog":             true,
	"sqm/internal/obs":     true,
	"sqm/internal/csvio":   true,
	"sqm/internal/modelio": true,
}

// dpExemptPkgs implement the samplers themselves: the release is what the
// *caller* makes of a draw, and the caller must account for it.
var dpExemptPkgs = map[string]bool{
	"sqm/internal/randx": true,
}

// dpEgressPkgs are the public API boundary: a noise-derived value
// returned from an exported function here leaves the library's control,
// so the accountant must have been consulted on the way.
var dpEgressPkgs = map[string]bool{
	"sqm": true,
}

const accountantPkg = "sqm/internal/dp"

// AnalyzerDPBudget checks where a noise draw may leave the party: over
// transport, through telemetry or CLI output, into a results file, or
// out of the public API, a value derived from a draw must have passed
// through a function that consults dp.Accountant. It sees that the
// accountant is consulted on the path, not that the ledger is charged:
// TestAbortIsTypedBookedAndLeakFree (core, Params.meter) and
// TestTrainSQMOrder3ModelUnchangedBySingleBuild (logreg) arbitrate that.
var AnalyzerDPBudget = &Analyzer{
	Name:      "dpbudget",
	Doc:       "DP noise draws reaching transport/obs/CLI output or exported returns through no function that consults dp.Accountant",
	RunModule: runDPBudget,
	Explain: &Explanation{
		Invariant: "A noise draw reaches a sink only through a function that consults the accountant: a value derived from a Skellam/discrete-Gaussian/discrete-Laplace draw may only escape the party (transport, obs, printed output, results files, exported facade returns) if a function on its dataflow path calls a dp.Accountant method. The check does not see whether the ledger is charged, or charged the right amount; TestAbortIsTypedBookedAndLeakFree (core) and TestTrainSQMOrder3ModelUnchangedBySingleBuild (logreg) fail when a release stops charging it.",
		Sources: []string{
			"(randx.RNG).Skellam/SkellamVec/DiscreteGaussian/DiscreteGaussianVec/DiscreteLaplace",
			"(*randx.SkellamSampler).Add",
		},
		Sinks: []string{
			"fmt.Print*/Fprint*, log, log/slog, sqm/internal/obs",
			"csvio/modelio writers (results files)",
			"transport Send/SendN payloads",
			"returns of exported functions in the sqm facade package",
		},
		Sanitizers: []string{
			"any function on the witness path that calls a *dp.Accountant method (AddSkellam, AddSubsampledSkellam, AddGaussian, AddRDP, Observe, ...)",
		},
		Example: `run.go:80:14: dpbudget: DP-noisy value escapes via fmt.Println without accountant coverage [source (randx.RNG).Skellam (draw.go:9) → result 0 of draw (draw.go:9) → var v (run.go:70) → sink (run.go:80)]`,
	},
}

func runDPBudget(mp *ModulePass) {
	m := mp.Module

	// A function that consults the accountant anywhere in its body
	// covers every release flowing through it: its outputs are
	// accounted values, so it acts as a sanitizer for this run, and
	// sinks inside it are accounted releases.
	covered := make(map[*types.Func]bool)
	san := make(map[string]bool)
	for _, cs := range m.Calls {
		if cs.Fn == nil || cs.Callee == nil {
			continue
		}
		if strings.HasPrefix(FuncKey(cs.Callee), "("+accountantPkg+".Accountant).") {
			if !covered[cs.Fn] {
				covered[cs.Fn] = true
				san[FuncKey(cs.Fn)] = true
			}
		}
	}
	res := m.Propagate(TaintSpec{FuncSources: dpNoiseSources, Sanitizers: san})

	for _, cs := range m.Calls {
		label := dpSinkLabel(cs)
		if label == "" || dpExemptPkgs[cs.Pkg.Path] {
			continue
		}
		// A sink package calling into itself is internal plumbing; the
		// release boundary is the call that enters the package.
		if cs.Callee != nil && cs.Callee.Pkg() != nil && cs.Callee.Pkg().Path() == cs.Pkg.Path {
			continue
		}
		if cs.Fn != nil && covered[cs.Fn] {
			continue
		}
		for _, arg := range cs.Call.Args {
			n, w := firstTainted(m, res, cs.Pkg, cs.Fn, arg)
			if n == nil {
				continue
			}
			mp.Reportf(arg.Pos(), "DP-noisy value escapes via %s without dp.Accountant coverage on its call path; account the release before it leaves the party [%s → sink (%s)]",
				label, w, m.PosString(arg.Pos()))
		}
	}
	for _, rs := range m.Returns {
		if !dpEgressPkgs[rs.Pkg.Path] || dpExemptPkgs[rs.Pkg.Path] {
			continue
		}
		if covered[rs.Fn] {
			continue
		}
		n, w := firstTainted(m, res, rs.Pkg, rs.Fn, rs.Expr)
		if n == nil {
			continue
		}
		mp.Reportf(rs.Expr.Pos(), "DP-noisy value returned from exported %s without dp.Accountant coverage on its call path; the facade is a release boundary [%s → exported return (%s)]",
			shortFuncName(rs.Fn), w, m.PosString(rs.Expr.Pos()))
	}
}

// dpSinkLabel classifies a call as a dpbudget release sink ("" if not).
func dpSinkLabel(cs *CallSite) string {
	fn := cs.Callee
	if fn == nil {
		return ""
	}
	key := FuncKey(fn)
	if dpPrintSinks[key] {
		return key
	}
	if fn.Pkg() != nil && dpSinkPkgs[fn.Pkg().Path()] {
		return fn.Pkg().Path()
	}
	if isTransportSend(fn) {
		return "transport payload"
	}
	if returnsAttr(fn) {
		return "obs.Attr constructor"
	}
	return ""
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

// isTransportSend reports whether fn is a Send/SendN method declared on
// a type (or interface) of the transport package.
func isTransportSend(fn *types.Func) bool {
	if fn.Name() != "Send" && fn.Name() != "SendN" {
		return false
	}
	return strings.HasPrefix(FuncKey(fn), "(sqm/internal/transport.")
}

// returnsAttr reports whether any of fn's results contains obs.Attr: a
// helper returning one (alone or inside a slice/struct) is an attribute
// constructor, and a noisy value flowing into it ends up on the same
// console/dump surface as a direct obs call — flight-recorder JSONL
// dumps included.
func returnsAttr(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if containsAttr(sig.Results().At(i).Type(), make(map[types.Type]bool)) {
			return true
		}
	}
	return false
}

// containsAttr reports whether t is, or structurally contains, obs.Attr.
// The traversal follows pointers, slices, arrays, maps, channels, and
// struct fields; seen terminates it on recursive types.
func containsAttr(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch tt := types.Unalias(t).(type) {
	case *types.Named:
		return isNamedType(tt, "sqm/internal/obs", "Attr") || containsAttr(tt.Underlying(), seen)
	case *types.Pointer:
		return containsAttr(tt.Elem(), seen)
	case *types.Slice:
		return containsAttr(tt.Elem(), seen)
	case *types.Array:
		return containsAttr(tt.Elem(), seen)
	case *types.Chan:
		return containsAttr(tt.Elem(), seen)
	case *types.Map:
		return containsAttr(tt.Key(), seen) || containsAttr(tt.Elem(), seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if containsAttr(tt.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
