// Command sqmlint runs the SQM static-analysis suite: a set of
// stdlib-only analyzers (internal/lint) that machine-check the repo's
// privacy, determinism, and field-arithmetic invariants on every PR.
//
// Usage:
//
//	sqmlint [-format text|json] [-show-ignored] [packages...]
//	sqmlint -list
//
// Package patterns are directory-relative ("./...", "./internal/...",
// "./internal/field"); the default is "./...". The exit code is 0 when
// no findings survive //lint:ignore suppression, 1 when findings
// remain, and 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sqm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sqmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or json")
	list := fs.Bool("list", false, "list registered checks and exit")
	showIgnored := fs.Bool("show-ignored", false, "also print findings suppressed by //lint:ignore directives")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sqmlint [-format text|json] [-show-ignored] [packages...]\n       sqmlint -list\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "sqmlint: unknown format %q (want text or json)\n", *format)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "sqmlint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "sqmlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "sqmlint: %v\n", err)
		return 2
	}

	res := lint.Run(pkgs, analyzers)
	switch *format {
	case "json":
		if err := lint.WriteJSON(stdout, res, analyzers, loader.ModuleRoot()); err != nil {
			fmt.Fprintf(stderr, "sqmlint: %v\n", err)
			return 2
		}
	default:
		if err := lint.WriteText(stdout, res, loader.ModuleRoot()); err != nil {
			fmt.Fprintf(stderr, "sqmlint: %v\n", err)
			return 2
		}
		if *showIgnored {
			for _, d := range res.Suppressed {
				fmt.Fprintf(stdout, "ignored: %s\n", d)
			}
		}
	}
	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(stderr, "sqmlint: %d finding(s) in %d package(s)\n", len(res.Diagnostics), len(pkgs))
		return 1
	}
	return 0
}
