package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"sqm/internal/field"
)

// fingerprint identifies the machine and build a run came from, so
// absolute numbers from different boxes can be normalised. It is printed
// with every run and is not a metric.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	// CalibFieldMulMelemS times a fixed scalar field.Mul chain in-run:
	// the yardstick other throughputs can be divided by.
	CalibFieldMulMelemS float64 `json:"calib.field_mul_melem_s"`
}

var calibSink field.Elem

// calibFieldMul runs a dependent chain of 4M field multiplications.
func calibFieldMul() float64 {
	const n = 1 << 22
	x, y := field.FromInt64(3), field.FromInt64(0x9e3779b97f4a7c)
	start := time.Now()
	for i := 0; i < n; i++ {
		x = field.Mul(x, y)
	}
	calibSink = x
	return n / time.Since(start).Seconds() / 1e6
}

func newFingerprint(seed uint64) fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100",
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if v := os.Getenv("GOGC"); v != "" {
		fp.GOGC = v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	fp.CalibFieldMulMelemS = calibFieldMul()
	return fp
}
