// Command benchmark is the repository's performance record: four named
// workloads run as whole sessions through the public sqm facade, every
// session checked against the plain engine, every metric printed by
// name and unit. See README.md and ../BENCHMARK.json.
//
//	go run ./benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-json out.json] [-spans out.jsonl]
//
// With -trace 0 (the default) the run has no decorator and no recorder
// attached and reports the end-to-end metrics. With -trace 1 it reports
// the per-layer metrics from instrumented session replicas and leaf
// probes. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 && args[0] == spinArg {
		return spin()
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "dataset seed; session i runs with protocol seed seed+i")
	seconds := fs.Float64("seconds", 25, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	jsonPath := fs.String("json", "", "also write the result with its fingerprint to this file")
	spansPath := fs.String("spans", "", "with -trace 1, write the raw spans as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-json out.json] [-spans out.jsonl]")
		return 2
	}
	if *name == "all" {
		common := []string{
			"-seed", strconv.FormatUint(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*trace),
		}
		return runAll(common, *jsonPath, *spansPath)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	fp := newFingerprint(*seed)
	stopSpinners, err := keepAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer stopSpinners()
	var o *outcome
	if *trace == 1 {
		o, err = runTraced(w, *seed, *seconds, *spansPath)
	} else {
		o, err = runUntraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	spec := endToEndSpec
	if *trace == 1 {
		spec = perLayerSpec
	}
	printTable(os.Stdout, o, spec, fp)
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, o, spec, fp); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Println(resultLine(o, spec))
	if o.failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so one workload's heap
// does not count towards another's peak_rss_mb.
func runAll(common []string, jsonPath, spansPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		args := append([]string{"-workload", w.name}, common...)
		if jsonPath != "" {
			args = append(args, "-json", perWorkloadPath(jsonPath, w.name))
		}
		if spansPath != "" {
			args = append(args, "-spans", perWorkloadPath(spansPath, w.name))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// perWorkloadPath inserts the workload name before the extension.
func perWorkloadPath(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}
