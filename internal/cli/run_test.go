package cli

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqm/internal/csvio"
	"sqm/internal/dataset"
	"sqm/internal/linalg"
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
	if err := Run("covariance", []string{"-data", path, "-header", "-eps", "4", "-gamma", "256"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got, err := csvio.Read(&out, csvio.Options{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.X.Rows != 8 || got.X.Cols != 8 {
		t.Fatalf("covariance shape %dx%d", got.X.Rows, got.X.Cols)
	}
}

func TestRunLR(t *testing.T) {
	path := writeTask(t, true)
	var out, errw bytes.Buffer
	err := Run("lr", []string{"-data", path, "-header", "-label", "label",
		"-eps", "4", "-gamma", "1024", "-epochs", "1", "-q", "0.05"}, &out, &errw)
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
	err = Run("ridge", []string{"-data", path, "-label", "6", "-eps", "4", "-gamma", "512", "-out", outPath}, &out, &errw)
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

func TestRunTraceDir(t *testing.T) {
	data := writeTask(t, false)
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	err := Run("covariance", []string{
		"-data", data, "-header", "-engine", "actor", "-parties", "3", "-trace-dir", dir,
	}, &out, &errBuf)
	if err != nil {
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
