package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricValue is one metric in the result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(o *outcome, spec []metricSpec) result {
	r := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(spec)),
	}
	for _, m := range spec {
		r.Metrics[m.name] = metricValue{Value: o.metrics[m.name], Unit: m.unit}
	}
	return r
}

// resultLine renders the result as one line of JSON. Values keep every
// digit they were measured with.
func resultLine(o *outcome, spec []metricSpec) string {
	b, err := json.Marshal(newResult(o, spec))
	if err != nil {
		// Only NaN or Inf can fail to marshal; report the run as wrong.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, o.attempted, o.attempted)
	}
	return string(b)
}

// printTable prints every metric by name and unit, with the fingerprint
// and the ungated diagnostics around it.
func printTable(out io.Writer, o *outcome, spec []metricSpec, fp fingerprint) {
	w := o.workload
	fmt.Fprintf(out, "workload %s  (%s)\n", w.name, w.why)
	fmt.Fprintf(out, "  shape: m=%d n=%d P=%d gamma=%g engine=%s", w.m, w.n, w.parties, w.gamma, w.engine)
	if w.kind != kindCov {
		fmt.Fprintf(out, " rounds=%d q=%g", w.rounds(), w.sampleRate)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  fingerprint: num_cpu=%d gomaxprocs=%d gogc=%s %s cpu=%q kernel=%s commit=%s seed=%d calib.field_mul_melem_s=%.2f\n",
		fp.NumCPU, fp.GOMAXPROCS, fp.GOGC, fp.GoVersion, fp.CPUModel, fp.Kernel, fp.Commit, fp.Seed, fp.CalibFieldMulMelemS)
	fmt.Fprintf(out, "  sessions: attempted=%d failed=%d timed_phase=%.1fs\n", o.attempted, o.failed, o.timedSeconds)
	if o.sessionHiPct > 0 {
		fmt.Fprintf(out, "  diagnostic: session p%.0f = %.6g s\n", o.sessionHiPct, o.sessionHi)
	}
	for _, m := range spec {
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", m.name, o.metrics[m.name], m.unit)
	}
}

// writeJSONFile stores the result with the fingerprint it was measured
// under.
func writeJSONFile(path string, o *outcome, spec []metricSpec, fp fingerprint) error {
	doc := struct {
		Workload    string      `json:"workload"`
		Fingerprint fingerprint `json:"fingerprint"`
		Result      result      `json:"result"`
		// SessionWalls lists every timed session's wall-clock in run
		// order, for quartiles and drift plots when comparing commits.
		SessionWalls []float64 `json:"session_walls_s"`
	}{o.workload.name, fp, newResult(o, spec), o.walls}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}
