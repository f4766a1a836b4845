// Command sqmbench regenerates the tables and figures of the paper's
// evaluation section, plus the ablations and profile experiments.
// Every experiment id (bench.IDs) maps to one runner in internal/bench;
// see EXPERIMENTS.md for the paper-vs-measured record. How fast the stack
// runs is recorded elsewhere: whole sessions and per-layer throughput by
// benchmark/ (BENCHMARK.json), single kernels by go test -bench.
//
// Usage:
//
//	sqmbench -exp fig3                       # one experiment, CI-scale
//	sqmbench -exp all -full -runs 20         # paper-scale shapes, 20 repeats
//	sqmbench -exp table2 -format json        # machine-readable run report
//
// Every timing cell (Tables II, IV and V) runs the real BGW protocol:
// -exp table2 -full takes about 20 s and 2 GB peak RSS on 2 cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sqm/internal/bench"
)

// runReport is the machine-readable record of one sqmbench invocation:
// the options it ran with, every produced table (whose timing columns
// carry both the modeled time — measured compute + rounds × latency —
// and the raw measured wall-clock), the machine they were measured on,
// and the wall-clock of the whole run.
type runReport struct {
	GeneratedAt      string         `json:"generated_at"`
	Experiment       string         `json:"experiment"`
	Runs             int            `json:"runs"`
	Full             bool           `json:"full"`
	Seed             uint64         `json:"seed"`
	GOMAXPROCS       int            `json:"gomaxprocs"`
	NumCPU           int            `json:"num_cpu"`
	GoVersion        string         `json:"go_version"`
	WallClockSeconds float64        `json:"wall_clock_seconds"`
	Tables           []*bench.Table `json:"tables"`
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id: "+bench.IDs)
		runs   = flag.Int("runs", 3, "repeats per cell (paper: 20)")
		full   = flag.Bool("full", false, "paper-scale dataset shapes (slow)")
		seed   = flag.Uint64("seed", 42, "reproducibility seed")
		format = flag.String("format", "text", "output format: text, csv or json (the run report)")
	)
	flag.Parse()

	start := time.Now()
	o := bench.Options{Runs: *runs, Full: *full, Seed: *seed}
	tables, err := bench.ByID(*exp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep := runReport{
		GeneratedAt:      start.UTC().Format(time.RFC3339),
		Experiment:       *exp,
		Runs:             *runs,
		Full:             *full,
		Seed:             *seed,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		WallClockSeconds: time.Since(start).Seconds(),
		Tables:           tables,
	}
	switch *format {
	case "csv":
		for _, t := range tables {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	case "text":
		for _, t := range tables {
			if _, err := t.WriteTo(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(1)
	}
}
