package lint

// Result is the outcome of running an analyzer suite over a package
// set.
type Result struct {
	// Diagnostics are the findings that survived //lint:ignore
	// suppression, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed are the findings removed by a matching directive,
	// sorted by position. Kept for auditability: sqmlint -show-ignored
	// prints them.
	Suppressed []Diagnostic
}

// Run applies every analyzer to every package, filters the findings
// through //lint:ignore directives, and returns both kept and
// suppressed diagnostics in deterministic order. Malformed directives
// surface as "lint" diagnostics so a typo cannot silently disable a
// suppression, and so do directives that suppressed none of the
// analyzers' findings.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				PkgPath:  pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				analyzer: a,
				report:   func(d Diagnostic) { raw = append(raw, d) },
			}
			a.Run(pass)
		}
	}
	directives, malformed := parseIgnoreDirectives(pkgs)
	kept, suppressed := applyIgnores(raw, directives)
	kept = append(kept, malformed...)
	sortDiagnostics(kept)
	sortDiagnostics(suppressed)
	return Result{
		Diagnostics: dedupDiagnostics(kept),
		Suppressed:  dedupDiagnostics(suppressed),
	}
}
