package bench

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestKernelsSmoke: the experiment must produce a row per benchmark,
// a metric per row, and — the part that matters — no output mismatch
// between the inline execution and the serial parties.
func TestKernelsSmoke(t *testing.T) {
	tbl, metrics := Kernels(Options{Runs: 1, Seed: 7})
	if len(tbl.Rows) == 0 {
		t.Fatal("kernels experiment produced no rows")
	}
	if len(metrics) != len(tbl.Rows) {
		t.Errorf("%d metrics for %d rows", len(metrics), len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] == "MISMATCH" {
			t.Errorf("parallel execution diverged from serial: %v", row)
		}
	}
	for id, rate := range metrics {
		if rate <= 0 {
			t.Errorf("metric %s has non-positive throughput %g", id, rate)
		}
	}
	for _, want := range []string{"field.mulvec", "field.dotacc", "lr3.exec"} {
		if _, ok := metrics[want]; !ok {
			t.Errorf("metric %s missing", want)
		}
	}
}

// TestKernelBaselineRoundTrip: write, load, compare — a run identical
// to its own baseline must pass, and the tolerance edge must hold.
func TestKernelBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_10.json")
	metrics := map[string]float64{"a": 1000, "b": 2000}
	if err := WriteKernelBaseline(path, metrics); err != nil {
		t.Fatalf("write: %v", err)
	}
	base, err := LoadKernelBaseline(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if base.NumCPU != runtime.NumCPU() {
		t.Errorf("baseline recorded %d cpus, want %d", base.NumCPU, runtime.NumCPU())
	}

	if regs, _ := CompareKernelBaseline(base, metrics, 0.25); len(regs) != 0 {
		t.Errorf("self-comparison regressed: %v", regs)
	}
	// 20% slower is inside the 25% tolerance; 30% slower is not.
	ok := map[string]float64{"a": 800, "b": 2000}
	if regs, _ := CompareKernelBaseline(base, ok, 0.25); len(regs) != 0 {
		t.Errorf("20%% slowdown flagged: %v", regs)
	}
	bad := map[string]float64{"a": 700, "b": 2000}
	regs, _ := CompareKernelBaseline(base, bad, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "a:") {
		t.Errorf("30%% slowdown on a not flagged: %v", regs)
	}

	// Benchmarks on only one side are notes, not failures.
	extra := map[string]float64{"a": 1000, "c": 5}
	regs, notes := CompareKernelBaseline(base, extra, 0.25)
	if len(regs) != 0 {
		t.Errorf("asymmetric sets regressed: %v", regs)
	}
	if len(notes) != 2 {
		t.Errorf("want 2 notes (b missing, c new), got %v", notes)
	}

	// A baseline from different hardware gates nothing.
	base.NumCPU++
	regs, notes = CompareKernelBaseline(base, map[string]float64{"a": 1}, 0.25)
	if len(regs) != 0 || len(notes) != 1 {
		t.Errorf("cpu-mismatch baseline: regs=%v notes=%v", regs, notes)
	}
}
