package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryHasTheInvariantSuite(t *testing.T) {
	as := All()
	if len(as) != 5 {
		t.Fatalf("registry has %d analyzers, want 5", len(as))
	}
	want := []string{"fieldops", "floateq", "noisedraw", "panicpolicy", "randdet"}
	seen := make(map[string]bool)
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("registry is missing %q", name)
		}
	}
	for i := 1; i < len(as); i++ {
		if as[i-1].Name >= as[i].Name {
			t.Errorf("registry not sorted: %q before %q", as[i-1].Name, as[i].Name)
		}
	}
}

func TestJSONOutputShape(t *testing.T) {
	_, res := loadFixture(t, "floateq", "fixture/floateq-json")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res, All(), ""); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	// Decode into a generic map so the assertion pins the wire shape,
	// not the Go struct.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if v, ok := doc["version"].(float64); !ok || v != 1 {
		t.Errorf("version = %v, want 1", doc["version"])
	}
	checks, ok := doc["checks"].([]any)
	if !ok || len(checks) != len(All()) {
		t.Fatalf("checks = %v, want %d entries", doc["checks"], len(All()))
	}
	for _, c := range checks {
		m := c.(map[string]any)
		for _, k := range []string{"name", "doc", "severity"} {
			if _, ok := m[k].(string); !ok {
				t.Errorf("check entry missing %q: %v", k, m)
			}
		}
	}
	diags, ok := doc["diagnostics"].([]any)
	if !ok || len(diags) == 0 {
		t.Fatalf("diagnostics = %v, want non-empty list", doc["diagnostics"])
	}
	d := diags[0].(map[string]any)
	for _, k := range []string{"check", "severity", "file", "message"} {
		if _, ok := d[k].(string); !ok {
			t.Errorf("diagnostic missing string field %q: %v", k, d)
		}
	}
	for _, k := range []string{"line", "column"} {
		if v, ok := d[k].(float64); !ok || v < 1 {
			t.Errorf("diagnostic field %q = %v, want positive number", k, d[k])
		}
	}
	if v, ok := doc["suppressed"].(float64); !ok || int(v) != len(res.Suppressed) {
		t.Errorf("suppressed = %v, want %d", doc["suppressed"], len(res.Suppressed))
	}
}

func TestJSONTrimsModuleRoot(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	_, res := loadFixture(t, "floateq", "fixture/floateq-trim")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res, All(), loader.ModuleRoot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), loader.ModuleRoot()) {
		t.Errorf("JSON report leaks absolute module root paths:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "internal/lint/testdata/src/floateq/floateq.go") {
		t.Errorf("JSON report missing module-relative file path:\n%s", buf.String())
	}
}

func TestTextOutput(t *testing.T) {
	_, res := loadFixture(t, "panicpolicy", "fixture/panicpolicy-text")
	var buf bytes.Buffer
	if err := WriteText(&buf, res, ""); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "panicpolicy.go:") || !strings.Contains(out, ": panicpolicy: ") {
		t.Errorf("text output missing file:line / check prefix:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != len(res.Diagnostics) {
		t.Errorf("text output line count != diagnostic count:\n%s", out)
	}
}

func TestSortAndDedupDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, check, msg string) Diagnostic {
		d := Diagnostic{Check: check, Message: msg}
		d.Pos.Filename = file
		d.Pos.Line = line
		d.Pos.Column = col
		return d
	}
	ds := []Diagnostic{
		mk("b.go", 2, 1, "floateq", "x"),
		mk("a.go", 9, 1, "floateq", "x"),
		mk("a.go", 3, 7, "randdet", "y"),
		mk("a.go", 3, 7, "noisedraw", "z"),
		mk("a.go", 3, 7, "randdet", "y"), // exact duplicate
	}
	sortDiagnostics(ds)
	ds = dedupDiagnostics(ds)
	want := []Diagnostic{
		mk("a.go", 3, 7, "noisedraw", "z"),
		mk("a.go", 3, 7, "randdet", "y"),
		mk("a.go", 9, 1, "floateq", "x"),
		mk("b.go", 2, 1, "floateq", "x"),
	}
	if len(ds) != len(want) {
		t.Fatalf("got %d diagnostics after dedup, want %d: %v", len(ds), len(want), ds)
	}
	for i := range want {
		if ds[i].String() != want[i].String() {
			t.Errorf("position %d: got %s, want %s", i, ds[i], want[i])
		}
	}
}

func TestOverlappingLoadsDedupToOneFinding(t *testing.T) {
	// The same package analyzed twice (as overlapping ./... patterns
	// would) must not double-report.
	pkg, single := loadFixture(t, "floateq", "fixture/floateq-dedup")
	double := Run([]*Package{pkg, pkg}, All())
	if len(double.Diagnostics) != len(single.Diagnostics) {
		t.Errorf("duplicate package load reported %d findings, want %d",
			len(double.Diagnostics), len(single.Diagnostics))
	}
}

func TestDiagnosticsAreDeterministicallyOrdered(t *testing.T) {
	_, res := loadFixture(t, "fieldops", "fixture/fieldops-order")
	for i := 1; i < len(res.Diagnostics); i++ {
		a, b := res.Diagnostics[i-1], res.Diagnostics[i]
		if a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line {
			t.Errorf("diagnostics out of order: %s after %s", b, a)
		}
	}
}

func TestLoaderRejectsEscapingPatterns(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load(loader.ModuleRoot(), "../..."); err == nil {
		t.Error("pattern escaping the module root should fail")
	}
}

func TestLoadSinglePackage(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(loader.ModuleRoot(), "./internal/field")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "sqm/internal/field" {
		t.Fatalf("Load returned %v, want the single field package", pkgs)
	}
	res := Run(pkgs, All())
	if len(res.Diagnostics) != 0 {
		t.Errorf("internal/field should be clean at HEAD, got %v", res.Diagnostics)
	}
}
