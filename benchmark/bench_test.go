package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted asserts that a run emitted exactly the declared metrics,
// under well-formed names and the declared units.
func checkEmitted(t *testing.T, o *outcome, spec []metricSpec, declared []struct{ Name, Unit string }) {
	t.Helper()
	want := make(map[string]string, len(declared))
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	res := newResult(o, spec)
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", o.workload.name, len(res.Metrics), len(want))
	}
	for name, mv := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("%s: emitted %s, which BENCHMARK.json does not declare", o.workload.name, name)
		} else if unit != mv.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", o.workload.name, name, mv.Unit, unit)
		}
		if _, measured := o.metrics[name]; !measured {
			t.Errorf("%s: %s is declared but was never measured", o.workload.name, name)
		}
	}
}

func TestManifestListsTheWorkloads(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload at its smoke shape through both modes:
// every session must match the plain oracle, the emitted metric set must
// be the declared one, and the exact counts must repeat.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, full := range workloads {
		w := full.short()
		t.Run(w.name, func(t *testing.T) {
			first, err := runUntraced(w, 1, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if first.attempted < 1 || first.failed != 0 {
				t.Fatalf("attempted %d, failed %d", first.attempted, first.failed)
			}
			checkEmitted(t, first, endToEndSpec, m.EndToEnd)
			for _, m := range endToEndSpec {
				if m.name == "peak_rss_mb" || m.name == "cpu_s_per_session" {
					continue // read from /proc and getrusage: zero off Linux
				}
				if !(first.metrics[m.name] > 0) {
					t.Errorf("%s = %v, want > 0", m.name, first.metrics[m.name])
				}
			}
			// A repeat of the counters alone (one more session, or one
			// more count pass) must read exactly what the run reported.
			in, err := w.generate(1)
			if err == nil {
				err = w.calibrate(in)
			}
			if err != nil {
				t.Fatal(err)
			}
			again, err := w.coreStats(in, 1)
			if err != nil {
				t.Fatal(err)
			}
			for name, b := range map[string]int64{
				"rounds_per_session": again.Rounds, "frames_per_session": again.Frames, "wire_bytes_per_session": again.Bytes,
			} {
				if a := first.metrics[name]; a != float64(b) {
					t.Errorf("%s differs between repeats: %v then %v", name, a, b)
				}
			}

			traced, err := runTraced(w, 1, 0.05, "")
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 {
				t.Fatalf("traced run: %d of %d sessions failed", traced.failed, traced.attempted)
			}
			checkEmitted(t, traced, perLayerSpec, m.PerLayer)
			if d := traced.metrics["core.replica_drift"]; d != 0 {
				t.Errorf("core.replica_drift = %v: the replica's counters left core's; resync replica.go", d)
			}
			if r := traced.metrics["trace.layer_sum_ratio"]; r < 0.9 || r > 1.1 {
				t.Errorf("trace.layer_sum_ratio = %v: the layers' self times do not add up to the sessions", r)
			}
			for name, v := range traced.metrics {
				if v < 0 {
					t.Errorf("%s = %v: a span's children outlast it", name, v)
				}
				if !w.hasMesh() && strings.HasPrefix(name, "transport.") && v != 0 {
					t.Errorf("%s = %v on a workload without a mesh, want exactly 0", name, v)
				}
			}
		})
	}
}

var benchSink []float64

// BenchmarkSession runs one session per iteration so benchstat works on
// the same cases as the benchmark proper (-short uses the smoke shapes).
func BenchmarkSession(b *testing.B) {
	for _, w := range workloads {
		if testing.Short() {
			w = w.short()
		}
		b.Run(w.name, func(b *testing.B) {
			in, _, err := w.setUp(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := w.session(in, 1+uint64(i), w.engine)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
			b.ReportMetric(w.cells()*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
