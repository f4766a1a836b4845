package lint

import (
	"go/types"
	"strings"
	"testing"
)

// engineFixture loads the taintengine fixture, builds its module
// graph, and runs one propagation with the test spec: NewSecret is the
// only source, Declassify the only sanitizer.
func engineFixture(t *testing.T) (*Package, *Module, *TaintResult) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/taintengine", "fixture/taintengine")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	m := BuildModule([]*Package{pkg})
	res := m.Propagate(TaintSpec{
		FuncSources: map[string]bool{"fixture/taintengine.NewSecret": true},
		Sanitizers:  map[string]bool{"fixture/taintengine.Declassify": true},
	})
	return pkg, m, res
}

// returnTaint reports whether any leaf of the named exported
// function's return expressions is tainted, along with the witness of
// the first tainted leaf.
func returnTaint(m *Module, res *TaintResult, name string) (bool, string) {
	for _, rs := range m.Returns {
		if rs.Fn.Name() != name {
			continue
		}
		for _, n := range m.Leaves(rs.Pkg, rs.Fn, rs.Expr) {
			if res.Tainted(n) {
				return true, res.Witness(n)
			}
		}
	}
	return false, ""
}

func TestEngineSummariesCarryFlowThroughCalls(t *testing.T) {
	_, m, res := engineFixture(t)
	// Chain never calls the source directly: the secret crosses Fill,
	// a struct field, and Take before being returned.
	tainted, witness := returnTaint(m, res, "Chain")
	if !tainted {
		t.Fatal("Chain's return is not tainted; summary flow through Fill/Take broke")
	}
	for _, frag := range []string{"NewSecret", "→"} {
		if !strings.Contains(witness, frag) {
			t.Errorf("Chain witness missing %q: %s", frag, witness)
		}
	}
}

func TestEngineFieldNodesSmearAcrossInstances(t *testing.T) {
	// Other reads a Box no caller ever filled. Field nodes are keyed by
	// field object, not instance, so the engine must (conservatively)
	// taint it: this test pins the documented under-approximation so a
	// future precision change shows up as a deliberate test update.
	_, m, res := engineFixture(t)
	if tainted, _ := returnTaint(m, res, "Other"); !tainted {
		t.Error("Other's return is clean; the per-field-object node model changed")
	}
}

func TestEngineSanitizerBlocksFlow(t *testing.T) {
	_, m, res := engineFixture(t)
	if tainted, w := returnTaint(m, res, "Published"); tainted {
		t.Errorf("Published's return is tainted despite the sanitizer: %s", w)
	}
	if tainted, w := returnTaint(m, res, "Plain"); tainted {
		t.Errorf("Plain touches no secret but is tainted: %s", w)
	}
}

func TestEngineWitnessNamesCallBoundaries(t *testing.T) {
	pkg, m, res := engineFixture(t)
	// The per-site result of Take inside Chain must carry a witness that
	// starts at the seed and renders at least one hop with a position.
	var chainFn *types.Func
	for fn := range m.Funcs {
		if fn.Name() == "Chain" {
			chainFn = fn
		}
	}
	if chainFn == nil {
		t.Fatal("Chain not indexed in module graph")
	}
	found := false
	for _, rs := range m.Returns {
		if rs.Fn != chainFn {
			continue
		}
		for _, n := range m.Leaves(pkg, chainFn, rs.Expr) {
			if !res.Tainted(n) {
				continue
			}
			found = true
			w := res.Witness(n)
			if !strings.HasPrefix(w, "source ") || !strings.Contains(strings.SplitN(w, " → ", 2)[0], "NewSecret") {
				t.Errorf("witness %q does not start at the source", w)
			}
			if !strings.Contains(w, "taintengine.go:") {
				t.Errorf("witness carries no source position: %s", w)
			}
		}
	}
	if !found {
		t.Fatal("no tainted return leaf found for Chain")
	}
}
