// Package lint is a self-contained static-analysis framework for the
// SQM repository, built on the standard library's go/parser, go/ast,
// go/types and go/token only (no x/tools, matching the repo's
// zero-dependency rule). It exists because SQM's correctness claims
// rest on invariants the Go compiler cannot check and no test catches
// when they break: all randomness must flow through the seeded samplers
// in internal/randx, a release's DP noise must be drawn as a dp.Noise
// (which opens only to a dp.Booking) rather than from randx directly,
// modular arithmetic on field.Elem must route through internal/field's
// Mersenne reduction, floating-point calibration code must not compare
// with ==, and panics are reserved for designated invariant helpers.
// Share secrecy is not among them: the bgw package boundary keeps every
// share inside a party (see TestEngineExportsNoShareMaterial).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis at
// a fraction of the surface: an Analyzer holds a name, a doc string
// and a Run function; a Pass hands the Run function one type-checked
// package and a Report sink; the runner in run.go loads packages,
// applies every analyzer, and filters diagnostics through
// //lint:ignore suppression directives.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned in the loaded file set.
type Diagnostic struct {
	// Check is the name of the analyzer that produced the finding.
	Check string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	// Fset positions every file of the load.
	Fset *token.FileSet
	// PkgPath is the import path of the package under analysis.
	PkgPath string
	// Files are the parsed non-test source files of the package.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos under the analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named per-package check.
type Analyzer struct {
	// Name identifies the check in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description shown by sqmlint -list.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// All returns the registered analyzer suite, sorted by name. Each
// entry encodes one SQM invariant; see DESIGN.md "Static analysis".
func All() []*Analyzer {
	as := []*Analyzer{
		AnalyzerRandDet,
		AnalyzerFieldOps,
		AnalyzerNoiseDraw,
		AnalyzerFloatEq,
		AnalyzerPanicPolicy,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// sortDiagnostics orders findings by file, line, column, check name,
// then message, so output is deterministic across runs regardless of
// package load order.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// dedupDiagnostics removes identical findings from a sorted slice:
// overlapping package patterns can analyze one file twice, and each
// copy would otherwise report the same (file, line, check) diagnostic.
func dedupDiagnostics(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 {
			p := out[len(out)-1]
			if p.Check == d.Check && p.Pos.Filename == d.Pos.Filename &&
				p.Pos.Line == d.Pos.Line && p.Pos.Column == d.Pos.Column &&
				p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}
