// Command sqmrun applies the SQM mechanisms to user-supplied CSV data:
//
//	sqmrun pca    -data x.csv -k 5 -eps 1                  # DP principal components
//	sqmrun lr     -data x.csv -label income -eps 1         # DP logistic regression
//	sqmrun ridge  -data x.csv -label price -eps 1          # DP ridge regression
//	sqmrun covariance -data x.csv -eps 1                   # DP covariance matrix
//
// Rows are clipped to L2 norm 1 (and labels validated per task) before
// the mechanism runs — the DP guarantee is stated for the clipped data.
// Results go to stdout as CSV (use -out to write a file).
//
// -engine selects the evaluation backend (plain, bgw, actor,
// actor-net); -v and -log-format turn on structured telemetry and a
// privacy-budget ledger, -debug-addr serves the pprof profiles.
// See README.md for the full flag reference. The logic lives in
// internal/cli.
package main

import (
	"fmt"
	"os"
	"strings"

	"sqm/internal/cli"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "-h", "--help", "help":
		usage()
		return
	}
	if err := cli.Run(cmd, args, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sqmrun:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: sqmrun <%s> -data file.csv [flags]\n", strings.Join(cli.Commands(), "|"))
	fmt.Fprintln(os.Stderr, "run 'sqmrun <command> -h' for per-command flags")
}
