package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// Load model: one closed-loop client runs one session at a time. Each
// session already fans out to P party goroutines (and, on TCP,
// P(P−1)/2 loopback sockets), so nothing runs concurrently on top.
const (
	// setupRepeats set-ups run back to back and setup_s is their median,
	// so one slow dataset generation does not decide the metric.
	setupRepeats = 3
	// warmupSessions run inside every set-up: the heap reaches its
	// working size and lazy initialisation finishes before timing.
	warmupSessions = 2
	// roundLatency is the paper's NetTime model: 0.1 s per round.
	roundLatency = 0.1
)

// metricSpec declares one reported metric; BENCHMARK.json carries the
// same names and units (bench_test.go checks the two agree).
type metricSpec struct{ name, unit string }

var endToEndSpec = []metricSpec{
	{"session_p50_s", "s"},
	{"cells_per_s", "cells/s"},
	{"cpu_s_per_session", "s"},
	{"modeled_s", "s"},
	{"setup_s", "s"},
	{"rounds_per_session", "count"},
	{"frames_per_session", "count"},
	{"wire_bytes_per_session", "bytes"},
	{"allocs_per_session", "count"},
	{"alloc_mb_per_session", "MB"},
	{"peak_rss_mb", "MB"},
}

// sample is one timed session.
type sample struct {
	wall    float64 // s
	cpu     float64 // user+sys s
	mallocs float64
	allocMB float64
	peakRSS float64 // MB, high-water mark of this session alone
}

// outcome is what one run of one workload produced.
type outcome struct {
	workload  workload
	attempted int
	failed    int
	metrics   map[string]float64
	// Diagnostics printed beside the metrics but not gated.
	sessionHi    float64 // highest percentile with >= 10 samples beyond it
	sessionHiPct float64
	timedSeconds float64
	walls        []float64 // every timed session, in run order
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf returns the median of one field over the samples.
func medianOf(samples []sample, field func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = field(s)
	}
	return median(xs)
}

// highPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it (the maximum when there are too few), and
// which percentile that is.
func highPercentile(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := len(s) - 11
	if idx < 0 {
		idx = len(s) - 1
	}
	return s[idx], 100 * float64(idx+1) / float64(len(s))
}

// sameBits reports whether two released outputs are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// setUp runs one full set-up — dataset generation, μ calibration and
// the warm-up sessions — and returns its inputs and wall-clock.
func (w workload) setUp(seed uint64) (*inputs, float64, error) {
	start := time.Now()
	in, err := w.generate(seed)
	if err == nil {
		err = w.calibrate(in)
	}
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < warmupSessions; i++ {
		if _, _, err := w.session(in, seed+uint64(i), w.engine); err != nil {
			return nil, 0, fmt.Errorf("warm-up session %d: %w", i, err)
		}
	}
	return in, time.Since(start).Seconds(), nil
}

// timedSession runs session i with no decorator and no recorder
// attached, then checks it against the plain oracle outside the timer.
func (w workload) timedSession(in *inputs, seed uint64) (s sample, err error) {
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now()
	out, _, err := w.session(in, seed, w.engine)
	s.wall = time.Since(start).Seconds()
	s.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	s.peakRSS = peakRSSMB()
	s.mallocs = float64(after.Mallocs - before.Mallocs)
	s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if err != nil {
		return s, err
	}
	want, err := w.oracle(in, seed)
	if err != nil {
		return s, fmt.Errorf("oracle: %w", err)
	}
	if !sameBits(out, want) {
		return s, fmt.Errorf("output differs from the plain engine")
	}
	return s, nil
}

// runUntraced measures the end-to-end metrics: set-up, then sessions
// seed, seed+1, … back to back for the given time.
func runUntraced(w workload, seed uint64, seconds float64) (*outcome, error) {
	var in *inputs
	setups := make([]float64, 0, setupRepeats)
	for r := 0; r < setupRepeats; r++ {
		var err error
		var took float64
		if in, took, err = w.setUp(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took)
	}

	counts, err := w.coreStats(in, seed)
	if err != nil {
		return nil, err
	}

	o := &outcome{workload: w}
	var samples []sample
	timedStart := time.Now()
	for i := 0; time.Since(timedStart).Seconds() < seconds; i++ {
		o.attempted++
		s, err := w.timedSession(in, seed+uint64(i))
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "%s: session %d (seed %d): %v\n", w.name, i, seed+uint64(i), err)
			continue
		}
		samples = append(samples, s)
	}
	o.timedSeconds = time.Since(timedStart).Seconds()
	if len(samples) == 0 {
		return o, fmt.Errorf("%s: no session succeeded", w.name)
	}

	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall
	}
	o.walls = walls
	p50 := median(walls)
	o.sessionHi, o.sessionHiPct = highPercentile(walls)
	o.metrics = map[string]float64{
		"session_p50_s":          p50,
		"cells_per_s":            w.cells() / p50,
		"cpu_s_per_session":      medianOf(samples, func(s sample) float64 { return s.cpu }),
		"modeled_s":              p50 + float64(counts.Rounds)*roundLatency,
		"setup_s":                median(setups),
		"rounds_per_session":     float64(counts.Rounds),
		"frames_per_session":     float64(counts.Frames),
		"wire_bytes_per_session": float64(counts.Bytes),
		"allocs_per_session":     medianOf(samples, func(s sample) float64 { return s.mallocs }),
		"alloc_mb_per_session":   medianOf(samples, func(s sample) float64 { return s.allocMB }),
		"peak_rss_mb":            medianOf(samples, func(s sample) float64 { return s.peakRSS }),
	}
	return o, nil
}
