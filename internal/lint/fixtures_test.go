package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// wantRe extracts the quoted regexps of a // want "re" ["re" ...]
// comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one // want marker.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// sharedLoader memoizes one Loader across the test binary: fixture
// loads then reuse the (expensive) source-imported stdlib packages.
// Tests run serially, so the unsynchronized loader caches are safe.
var sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// loadFixture type-checks testdata/src/<name> under the given import
// path and runs the full analyzer suite over it.
func loadFixture(t *testing.T, name, asPath string) (*Package, Result) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg, Run([]*Package{pkg}, All())
}

// collectWants parses the // want markers of a loaded package, keyed
// by file:line.
func collectWants(t *testing.T, pkg *Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return wants
}

// checkAgainstWants matches kept diagnostics against the want markers:
// every diagnostic must be expected, and every expectation must fire
// exactly once.
func checkAgainstWants(t *testing.T, pkg *Package, res Result) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, e := range wants[key] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, es := range wants {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.re)
			}
		}
	}
}

// fixtureCase drives one analyzer fixture: all wants must fire, and
// the fixture's //lint:ignore directives must suppress exactly
// wantSuppressed findings of the named check.
func fixtureCase(t *testing.T, name, asPath, check string, wantSuppressed int) {
	t.Helper()
	pkg, res := loadFixture(t, name, asPath)
	checkAgainstWants(t, pkg, res)
	if len(res.Diagnostics) == 0 {
		t.Errorf("fixture %s caught no violations; each analyzer must demonstrate at least one", name)
	}
	got := 0
	for _, d := range res.Suppressed {
		if d.Check == check {
			got++
		}
	}
	if got != wantSuppressed {
		t.Errorf("fixture %s: suppressed %d %s finding(s), want %d", name, got, check, wantSuppressed)
	}
}

func TestRandDetFixture(t *testing.T) {
	fixtureCase(t, "randdet", "fixture/randdet", "randdet", 1)
}

func TestRandDetExemptsRandxPackage(t *testing.T) {
	// The same fixture loaded under the sampler package's own import
	// path must produce no randdet findings at all.
	pkg, res := loadFixture(t, "randdet", "sqm/internal/randx")
	for _, d := range append(res.Diagnostics, res.Suppressed...) {
		if d.Check == "randdet" {
			t.Errorf("randdet fired inside its exempt package: %s", d)
		}
	}
	_ = pkg
}

func TestFieldOpsFixture(t *testing.T) {
	fixtureCase(t, "fieldops", "fixture/fieldops", "fieldops", 1)
}

func TestNoiseDrawFixture(t *testing.T) {
	fixtureCase(t, "noisedraw", "fixture/noisedraw", "noisedraw", 3)
}

// noiseDrawsByFunc counts the kept noisedraw findings of a loaded
// package by the top-level function that holds them.
func noiseDrawsByFunc(pkg *Package, res Result) map[string]int {
	n := make(map[string]int)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			from, to := pkg.Fset.Position(fn.Pos()), pkg.Fset.Position(fn.End())
			for _, d := range res.Diagnostics {
				if d.Check == "noisedraw" && d.Pos.Filename == from.Filename &&
					d.Pos.Offset >= from.Offset && d.Pos.Offset < to.Offset {
					n[fn.Name.Name]++
				}
			}
		}
	}
	return n
}

func TestDPBudgetFixture(t *testing.T) {
	// Each release path the DP budget guards is a finding at its draw:
	// printed, accounted but drawn raw, drawn through a shared sampler or
	// on a worker goroutine, returned from an exported function, taken as
	// a method value. Good draws through dp.Noise, which opens only to
	// the booking the accountant mints, and is no finding.
	pkg, res := loadFixture(t, "noisedraw", "fixture/noisedraw")
	got := noiseDrawsByFunc(pkg, res)
	for _, name := range []string{"draw", "Accounted", "fillShared", "drawParallel", "Estimate", "Samplers"} {
		if got[name] == 0 {
			t.Errorf("%s: no noisedraw finding at its raw draw", name)
		}
	}
	for _, name := range []string{"Bad", "Good", "Suppressed", "SuppressedMultiline"} {
		if got[name] != 0 {
			t.Errorf("%s: %d noisedraw finding(s), want none", name, got[name])
		}
	}
}

func TestDPBudgetFacadeEgress(t *testing.T) {
	// Loaded under the sqm facade import path, the fixture's draws are
	// findings as anywhere outside the ledger's packages: a noisy value
	// returned from an exported facade function is flagged at its draw.
	pkg, res := loadFixture(t, "noisedraw", "sqm")
	checkAgainstWants(t, pkg, res)
	if noiseDrawsByFunc(pkg, res)["Estimate"] == 0 {
		t.Error("facade fixture: no noisedraw finding in Estimate's exported return")
	}
}

func TestNoiseDrawExemptsItsPackages(t *testing.T) {
	// The same fixture loaded under each allowed package's import path
	// must produce no noisedraw findings at all.
	for path := range noiseDrawPkgs {
		_, res := loadFixture(t, "noisedraw", path)
		for _, d := range append(res.Diagnostics, res.Suppressed...) {
			if d.Check == "noisedraw" {
				t.Errorf("noisedraw fired inside its exempt package %s: %s", path, d)
			}
		}
	}
}

func TestFloatEqFixture(t *testing.T) {
	fixtureCase(t, "floateq", "fixture/floateq", "floateq", 1)
}

func TestPanicPolicyFixture(t *testing.T) {
	fixtureCase(t, "panicpolicy", "fixture/panicpolicy", "panicpolicy", 1)
}

func TestPanicPolicyStrictOnExportedSurfaces(t *testing.T) {
	// Loaded under internal/cli's import path, even invariant panics
	// are banned.
	pkg, res := loadFixture(t, "panicstrict", "sqm/internal/cli")
	checkAgainstWants(t, pkg, res)
	if len(res.Diagnostics) != 2 {
		t.Errorf("want 2 strict-mode findings, got %d: %v", len(res.Diagnostics), res.Diagnostics)
	}
}

func TestMalformedIgnoreDirective(t *testing.T) {
	_, res := loadFixture(t, "badignore", "fixture/badignore")
	var gotMalformed, gotStale, gotFloat bool
	for _, d := range res.Diagnostics {
		switch {
		case d.Check == "lint" && strings.Contains(d.Message, "malformed //lint:ignore"):
			gotMalformed = true
		case d.Check == "lint" && strings.Contains(d.Message, "//lint:ignore floateq suppresses no finding"):
			gotStale = true
		case d.Check == "floateq":
			gotFloat = true
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !gotMalformed {
		t.Error("malformed directive was not reported")
	}
	if !gotStale {
		t.Error("directive that suppresses nothing was not reported")
	}
	if !gotFloat {
		t.Error("malformed directive wrongly suppressed the floateq finding")
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("broken directives suppressed %d finding(s)", len(res.Suppressed))
	}
}

// nodeCount guards against fixtures silently losing their package
// docs: every fixture file must still parse with comments attached,
// since both the want markers and the ignore directives ride on them.
func TestFixtureCommentsLoaded(t *testing.T) {
	pkg, _ := loadFixture(t, "floateq", "fixture/floateq-comments")
	n := 0
	for _, f := range pkg.Files {
		ast.Inspect(f, func(ast.Node) bool { n++; return true })
		if len(f.Comments) == 0 {
			t.Fatalf("fixture file lost its comments; want markers cannot work")
		}
	}
	if n == 0 {
		t.Fatal("fixture parsed to an empty AST")
	}
}
