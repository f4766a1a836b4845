// Command sqmtrace merges the per-party flight-recorder dumps a traced
// run leaves behind (sqmrun -trace-dir, examples/vflsession -trace-dir) into
// one causally ordered timeline: events sorted by Lamport stamp,
// cross-party send/recv pairs matched by (link, lclock), per-link bytes,
// messages, latency and straggler stats, count / total / mean / max
// seconds per span name, and the privacy ledger's budget events flagged
// inline.
//
// Usage:
//
//	sqmtrace [-format text|json] [-o file] <trace-dir | dump.jsonl...>
//
// The exit code is 0 on a consistent timeline, 1 when the merge finds
// inconsistencies (unmatched receives, or circuit.level spans whose
// levels regress within a stream), and 2 on usage or read errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sqm/internal/sqmtrace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sqmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or json")
	out := fs.String("o", "", "write the timeline to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sqmtrace [-format text|json] [-o file] <trace-dir | dump.jsonl...>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "sqmtrace: unknown format %q (want text or json)\n", *format)
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		return 2
	}

	var events []sqmtrace.Event
	var files []string
	if len(paths) == 1 {
		if st, err := os.Stat(paths[0]); err == nil && st.IsDir() {
			evs, fls, err := sqmtrace.ReadDir(paths[0])
			if err != nil {
				fmt.Fprintf(stderr, "sqmtrace: %v\n", err)
				return 2
			}
			events, files = evs, fls
		}
	}
	if files == nil {
		evs, err := sqmtrace.ReadFiles(paths)
		if err != nil {
			fmt.Fprintf(stderr, "sqmtrace: %v\n", err)
			return 2
		}
		events, files = evs, paths
	}

	tl := sqmtrace.Build(events, files)

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "sqmtrace: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	var werr error
	if *format == "json" {
		werr = tl.WriteJSON(w)
	} else {
		werr = tl.WriteText(w)
	}
	if werr != nil {
		fmt.Fprintf(stderr, "sqmtrace: %v\n", werr)
		return 2
	}
	if !tl.CausalOrderOK || len(tl.Match.UnmatchedRecvs) > 0 {
		fmt.Fprintf(stderr, "sqmtrace: timeline inconsistent (%d unmatched recvs, causal order ok=%v)\n",
			len(tl.Match.UnmatchedRecvs), tl.CausalOrderOK)
		return 1
	}
	return 0
}
