package lint

import (
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
	"(sqm/internal/randx.RNG).AddSkellam":          true,
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

// AnalyzerDPBudget enforces the accounting invariant of the shuffle/
// distributed DP literature: every noise draw that escapes the party —
// over transport, through telemetry or CLI output, into a results file,
// or out of the public API — must pass through dp.Accountant on its
// call path. An unaccounted release silently spends ε the ledger never
// sees, which voids the composition theorem the deployment relies on.
var AnalyzerDPBudget = &Analyzer{
	Name:      "dpbudget",
	Doc:       "DP noise draws escaping via transport/obs/CLI output or exported returns without dp.Accountant on the call path",
	Severity:  SeverityError,
	RunModule: runDPBudget,
	Explain: &Explanation{
		Invariant: "Every DP release must be metered: a value derived from a Skellam/discrete-Gaussian/discrete-Laplace draw may only escape the party (transport, obs, printed output, results files, exported facade returns) if a function on its dataflow path calls the dp.Accountant. Unaccounted releases spend privacy budget the ledger never records.",
		Sources: []string{
			"(randx.RNG).Skellam/SkellamVec/AddSkellam/DiscreteGaussian/DiscreteGaussianVec/DiscreteLaplace",
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
