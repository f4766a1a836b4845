package cli

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqm/internal/core"
	"sqm/internal/csvio"
	"sqm/internal/dataset"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/linreg"
	"sqm/internal/logreg"
	"sqm/internal/pca"
)

// writeTask materializes a labeled CSV fixture.
func writeTask(t *testing.T, labeled bool) string {
	t.Helper()
	ds, err := dataset.ACSIncomeLike("CA", 300, 1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := ds.X
	header := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if labeled {
		full := linalg.NewMatrix(x.Rows, x.Cols+1)
		for i := 0; i < x.Rows; i++ {
			copy(full.Row(i), x.Row(i))
			full.Set(i, x.Cols, ds.Labels[i])
		}
		x = full
		header = append(header, "label")
	}
	path := filepath.Join(t.TempDir(), "task.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := csvio.Write(f, x, header); err != nil {
		t.Fatal(err)
	}
	return path
}

// load reads a fixture the way Run does: rows clipped to unit norm.
func load(t *testing.T, path string, opts csvio.Options) *csvio.Loaded {
	t.Helper()
	loaded, err := csvio.Load(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	csvio.NormalizeRows(loaded.X, 1)
	return loaded
}

// checkLedger asserts that Run printed the privacy-ledger line of want,
// an accountant the test booked itself.
func checkLedger(t *testing.T, stderr string, delta float64, want *dp.Accountant) {
	t.Helper()
	eps, alpha := want.Epsilon(delta)
	line := fmt.Sprintf("sqmrun: privacy ledger: eps(delta=%g) = %.4f @ alpha=%d over %d release(s)",
		delta, eps, alpha, want.Releases())
	if !strings.Contains(stderr, line) {
		t.Fatalf("stderr lacks %q:\n%s", line, stderr)
	}
}

func TestCommands(t *testing.T) {
	if len(Commands()) != 4 {
		t.Fatalf("Commands = %v", Commands())
	}
}

func TestRunValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := Run("pca", nil, &out, &errw); err == nil {
		t.Fatal("missing -data must error")
	}
	if err := Run("lr", []string{"-data", "x.csv"}, &out, &errw); err == nil {
		t.Fatal("lr without -label must error")
	}
	if err := Run("bogus", []string{"-data", "x.csv"}, &out, &errw); err == nil {
		t.Fatal("unknown command must error")
	}
	if err := Run("pca", []string{"-data", "/nonexistent.csv"}, &out, &errw); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestRunPCA(t *testing.T) {
	path := writeTask(t, false)
	var out, errw bytes.Buffer
	if err := Run("pca", []string{"-data", path, "-header", "-k", "2", "-eps", "2", "-gamma", "512"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got, err := csvio.Read(&out, csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.X.Rows != 8 || got.X.Cols != 2 {
		t.Fatalf("subspace shape %dx%d", got.X.Rows, got.X.Cols)
	}
	if !strings.Contains(errw.String(), "captured variance") {
		t.Fatalf("diagnostics missing: %q", errw.String())
	}
}

func TestRunCovariance(t *testing.T) {
	path := writeTask(t, false)
	var out, errw bytes.Buffer
	if err := Run("covariance", []string{"-data", path, "-header", "-eps", "4", "-gamma", "256", "-log-format", "text"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got, err := csvio.Read(&out, csvio.Options{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.X.Rows != 8 || got.X.Cols != 8 {
		t.Fatalf("covariance shape %dx%d", got.X.Rows, got.X.Cols)
	}
	// One release at Lemma 5's sensitivities for unit-norm rows.
	mu, err := pca.CalibrateMu(4, 1e-5, 256, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := dp.NewAccountant(0)
	d2, d1 := pca.Sensitivities(256, 1, 8)
	want.AddSkellam(d1, d2, mu)
	checkLedger(t, errw.String(), 1e-5, want)
}

func TestRunLR(t *testing.T) {
	path := writeTask(t, true)
	var out, errw bytes.Buffer
	err := Run("lr", []string{"-data", path, "-header", "-label", "label",
		"-eps", "4", "-gamma", "1024", "-epochs", "1", "-q", "0.05", "-log-format", "text"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := csvio.Read(&out, csvio.Options{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.X.Rows != 8 {
		t.Fatalf("weights = %d, want 8", got.X.Rows)
	}
	if !strings.Contains(errw.String(), "training accuracy") {
		t.Fatalf("diagnostics missing: %q", errw.String())
	}
	// The run is one subsampled composition at Lemma 7's sensitivities
	// and the μ the trainer reports.
	loaded := load(t, path, csvio.Options{HasHeader: true, LabelColumn: "label"})
	cfg := logreg.Config{Eps: 4, Delta: 1e-5, Gamma: 1024, Epochs: 1, SampleRate: 0.05, Seed: 1}
	m, err := logreg.TrainSQM(loaded.X, loaded.Labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := dp.NewAccountant(0)
	d2, d1 := logreg.Sensitivities(1024, 8)
	want.AddSubsampledSkellam(d1, d2, m.Mu, cfg.SampleRate, cfg.Rounds())
	checkLedger(t, errw.String(), 1e-5, want)
}

func TestRunLRRejectsNonBinaryLabels(t *testing.T) {
	ds := dataset.RegressionLike(50, 1, 4, 0.1, 5) // continuous targets
	full := linalg.NewMatrix(ds.X.Rows, 5)
	for i := 0; i < ds.X.Rows; i++ {
		copy(full.Row(i), ds.X.Row(i))
		full.Set(i, 4, ds.Labels[i])
	}
	path := filepath.Join(t.TempDir(), "reg.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := csvio.Write(f, full, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out, errw bytes.Buffer
	if err := Run("lr", []string{"-data", path, "-label", "4", "-eps", "4"}, &out, &errw); err == nil {
		t.Fatal("continuous labels must be rejected for lr")
	}
}

func TestRunRidgeWithOutFile(t *testing.T) {
	ds := dataset.RegressionLike(200, 1, 6, 0.1, 7)
	full := linalg.NewMatrix(ds.X.Rows, 7)
	for i := 0; i < ds.X.Rows; i++ {
		copy(full.Row(i), ds.X.Row(i))
		full.Set(i, 6, ds.Labels[i]*1.5) // some labels beyond [-1,1] to exercise clipping
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "reg.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := csvio.Write(f, full, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	outPath := filepath.Join(dir, "weights.csv")
	var out, errw bytes.Buffer
	err = Run("ridge", []string{"-data", path, "-label", "6", "-eps", "4", "-gamma", "512", "-out", outPath, "-log-format", "text"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := csvio.Load(outPath, csvio.Options{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.X.Rows != 6 {
		t.Fatalf("weights = %d", loaded.X.Rows)
	}
	if !strings.Contains(errw.String(), "clipped") {
		t.Fatalf("label clipping diagnostic missing: %q", errw.String())
	}
	// One covariance release over [X | y] at the augmented bound
	// √(C² + B²) = √2 and the μ the fit reports.
	data := load(t, path, csvio.Options{LabelColumn: "6"})
	m, err := linreg.SQM(data.X, data.Labels, linreg.Config{Eps: 4, Delta: 1e-5, C: 1, B: 1, Gamma: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := dp.NewAccountant(0)
	d2, d1 := pca.Sensitivities(512, math.Sqrt2, 7)
	want.AddSkellam(d1, d2, m.Mu)
	checkLedger(t, errw.String(), 1e-5, want)
}

func TestRunTelemetryFlags(t *testing.T) {
	data := writeTask(t, false)
	var out, errBuf bytes.Buffer
	err := Run("covariance", []string{
		"-data", data, "-header", "-v", "-log-format", "json", "-debug-addr", "127.0.0.1:0",
	}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	diag := errBuf.String()
	for _, want := range []string{"dp.release", "privacy ledger", "debug endpoint"} {
		if !strings.Contains(diag, want) {
			t.Errorf("stderr missing %q:\n%s", want, diag)
		}
	}
}

// TestRunTraceDir: -trace-dir dumps the coordinator stream and one per
// mesh party on the way out — after a completed run, and after a run the
// field bound refuses, whose error still leaves the dumps behind.
func TestRunTraceDir(t *testing.T) {
	data := writeTask(t, false)
	for _, tc := range []struct {
		name  string
		extra []string
		fails bool
	}{
		{"completed", nil, false},
		{"refused", []string{"-gamma", "1e9"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var out, errBuf bytes.Buffer
			args := append([]string{
				"-data", data, "-header", "-engine", "actor", "-parties", "3", "-trace-dir", dir,
			}, tc.extra...)
			err := Run("covariance", args, &out, &errBuf)
			if tc.fails && !errors.Is(err, core.ErrFieldOverflow) {
				t.Fatalf("err = %v, want the field bound's refusal", err)
			}
			if !tc.fails && err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(errBuf.String(), "trace dump") {
				t.Fatalf("stderr missing trace dump report: %q", errBuf.String())
			}
			// Coordinator stream plus one per mesh party.
			dumps, err := filepath.Glob(filepath.Join(dir, "trace-*.jsonl"))
			if err != nil || len(dumps) != 4 {
				t.Fatalf("trace dumps = %v (err %v), want 4", dumps, err)
			}
		})
	}
}

func TestRunRejectsBadLogFormat(t *testing.T) {
	data := writeTask(t, false)
	var out, errBuf bytes.Buffer
	err := Run("covariance", []string{"-data", data, "-header", "-log-format", "yaml"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "log-format") {
		t.Fatalf("err = %v", err)
	}
}

// TestDebugMux: -debug-addr serves the runtime profiles and nothing
// else — there is no metrics endpoint.
func TestDebugMux(t *testing.T) {
	mux := debugMux()
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), "goroutine") {
		t.Fatalf("pprof index missing: %d", rw.Code)
	}
	for _, path := range []string{"/metrics", "/metrics.json"} {
		rw = httptest.NewRecorder()
		mux.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		if rw.Code != 404 {
			t.Fatalf("%s status %d, want 404", path, rw.Code)
		}
	}
}
