// Package cli implements the sqmrun command logic — applying the SQM
// mechanisms to user-supplied CSV files — behind a testable interface;
// cmd/sqmrun is a thin wrapper around Run.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"sqm/internal/core"
	"sqm/internal/csvio"
	"sqm/internal/dp"
	"sqm/internal/linreg"
	"sqm/internal/logreg"
	"sqm/internal/mathx"
	"sqm/internal/obs"
	"sqm/internal/pca"
)

// Commands lists the supported subcommands.
func Commands() []string { return []string{"pca", "covariance", "lr", "ridge"} }

// Run executes one sqmrun subcommand. Results go to stdout (or -out);
// diagnostics to stderr.
func Run(cmd string, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data    = fs.String("data", "", "input CSV file (required)")
		header  = fs.Bool("header", false, "first CSV row is a header")
		label   = fs.String("label", "", "label column name/index (lr, ridge)")
		out     = fs.String("out", "", "output CSV file (default stdout)")
		eps     = fs.Float64("eps", 1, "privacy budget epsilon")
		delta   = fs.Float64("delta", 1e-5, "privacy parameter delta")
		gamma   = fs.Float64("gamma", 4096, "SQM scaling parameter")
		k       = fs.Int("k", 5, "principal components (pca)")
		epochs  = fs.Int("epochs", 5, "training epochs (lr)")
		q       = fs.Float64("q", 0.01, "Poisson sampling rate (lr)")
		seed    = fs.Uint64("seed", 1, "reproducibility seed")
		engine  = fs.String("engine", "plain", "evaluation backend: plain, bgw, actor, actor-net")
		nparty  = fs.Int("parties", 0, "MPC party count (engines other than plain)")
		timeout = fs.Duration("timeout", 0, "per-receive deadline for MPC transports (0 blocks forever)")
		retries = fs.Int("retries", 1, "attempt budget for transient transport setup failures (TCP dials)")

		verbose   = fs.Bool("v", false, "debug-level telemetry on stderr (implies -log-format text)")
		logFormat = fs.String("log-format", "", "structured telemetry on stderr: text or json")
		debugAddr = fs.String("debug-addr", "", "serve the runtime profiles (net/http/pprof, /debug/pprof/) on this address")
		traceDir  = fs.String("trace-dir", "", "dump per-party flight-recorder traces (JSONL) into this directory; merge with sqmtrace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logFormat != "" && *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("-log-format must be text or json, got %q", *logFormat)
	}
	// Telemetry is on when -v or -log-format is set; -v lowers the level
	// to debug. -debug-addr serves the runtime profiles only: every
	// number a run reports is an event on stderr or in the -trace-dir
	// dumps.
	var rec obs.Recorder
	if *verbose || *logFormat != "" {
		format := *logFormat
		if format == "" {
			format = "text"
		}
		min := obs.LevelInfo
		if *verbose {
			min = obs.LevelDebug
		}
		rec = obs.NewLog(stderr, format, min)
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		srv := &http.Server{Handler: debugMux()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(stderr, "sqmrun: debug endpoint at http://%s/debug/pprof/\n", ln.Addr())
	}
	kind, err := core.ParseEngineKind(*engine)
	if err != nil {
		return err
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", *timeout)
	}
	if *retries < 1 {
		return fmt.Errorf("-retries must be at least 1, got %d", *retries)
	}
	fault := core.FaultConfig{RecvTimeout: *timeout, DialRetries: *retries}
	if kind.IsMPC() && *nparty == 0 {
		*nparty = 3
	}
	// -trace-dir turns on the session flight recorder: one trace
	// context shared by the coordinator and (for MPC engines) every
	// mesh party, dumped as per-party JSONL on the way out so crashes
	// still leave evidence. sqmtrace merges the dumps.
	if *traceDir != "" {
		parties := 0
		if kind.IsMPC() {
			parties = *nparty
		}
		tc := obs.NewTraceContext(obs.DeriveTraceID(*seed, uint64(parties)), parties)
		rec = tc.Coordinator().Wrap(rec)
		defer func() {
			files, err := tc.DumpAll(*traceDir)
			if err != nil {
				fmt.Fprintf(stderr, "sqmrun: trace dump failed: %v\n", err)
				return
			}
			fmt.Fprintf(stderr, "sqmrun: wrote %d trace dump(s) to %s (merge with: sqmtrace %s)\n",
				len(files), *traceDir, *traceDir)
		}()
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	if (cmd == "lr" || cmd == "ridge") && *label == "" {
		return fmt.Errorf("%s needs -label", cmd)
	}
	loaded, err := csvio.Load(*data, csvio.Options{HasHeader: *header, LabelColumn: *label})
	if err != nil {
		return err
	}
	if clipped := csvio.NormalizeRows(loaded.X, 1); clipped > 0 {
		fmt.Fprintf(stderr, "sqmrun: clipped %d/%d rows to unit norm (DP requires the bound)\n",
			clipped, loaded.X.Rows)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	// With telemetry on, an accountant ledger books the run's privacy
	// cost and prints the final ε(δ). The mechanisms that take an
	// accountant book themselves; pca and ridge are booked here from the μ
	// their result reports.
	acct := dp.NewAccountant(0)
	if rec != nil {
		acct.Observe(rec, *delta)
		acct.SetBudget(*eps)
	}
	ledgerLine := func() {
		if rec == nil {
			return
		}
		e, alpha := acct.Epsilon(*delta)
		fmt.Fprintf(stderr, "sqmrun: privacy ledger: eps(delta=%g) = %.4f @ alpha=%d over %d release(s)\n",
			*delta, e, alpha, acct.Releases())
	}

	switch cmd {
	case "pca":
		r, err := pca.SQM(loaded.X, pca.Config{
			K: *k, Eps: *eps, Delta: *delta, C: 1, Gamma: *gamma, Seed: *seed,
			Engine: kind, Parties: *nparty, Recorder: rec, Fault: fault,
		})
		if err != nil {
			return err
		}
		d2, d1 := pca.Sensitivities(*gamma, 1, loaded.X.Cols)
		acct.AddSkellam(d1, d2, r.Mu)
		ledgerLine()
		fmt.Fprintf(stderr, "sqmrun: captured variance ||XV||_F^2 = %.4f at (eps=%g, delta=%g)\n",
			r.Utility, *eps, *delta)
		return csvio.Write(w, r.Subspace, nil)
	case "covariance":
		mu, err := pca.CalibrateMu(*eps, *delta, *gamma, 1, loaded.X.Cols)
		if err != nil {
			return err
		}
		cov, _, err := core.Covariance(loaded.X, core.Params{
			Gamma: *gamma, Mu: mu, Seed: *seed, Engine: kind, Parties: *nparty, Recorder: rec, Fault: fault,
			Acct: acct,
		})
		if err != nil {
			return err
		}
		ledgerLine()
		return csvio.Write(w, cov, loaded.Header)
	case "lr":
		for i, y := range loaded.Labels {
			if !mathx.EqualWithin(y, 0, 0) && !mathx.EqualWithin(y, 1, 0) {
				return fmt.Errorf("lr needs 0/1 labels; row %d has %v", i+1, y)
			}
		}
		m, err := logreg.TrainSQM(loaded.X, loaded.Labels, logreg.Config{
			Eps: *eps, Delta: *delta, Gamma: *gamma,
			Epochs: *epochs, SampleRate: *q, Seed: *seed,
			Engine: kind, Parties: *nparty, Recorder: rec, Fault: fault,
			Acct: acct,
		})
		if err != nil {
			return err
		}
		ledgerLine()
		fmt.Fprintf(stderr, "sqmrun: training accuracy %.4f at (eps=%g, delta=%g)\n",
			logreg.Accuracy(m, loaded.X, loaded.Labels), *eps, *delta)
		return csvio.WriteVector(w, m.W, "weight")
	case "ridge":
		clippedY := 0
		for i, y := range loaded.Labels {
			if y > 1 {
				loaded.Labels[i], clippedY = 1, clippedY+1
			} else if y < -1 {
				loaded.Labels[i], clippedY = -1, clippedY+1
			}
		}
		if clippedY > 0 {
			fmt.Fprintf(stderr, "sqmrun: clipped %d labels to [-1, 1]\n", clippedY)
		}
		m, err := linreg.SQM(loaded.X, loaded.Labels, linreg.Config{
			Eps: *eps, Delta: *delta, C: 1, B: 1, Gamma: *gamma, Seed: *seed,
			Engine: kind, Parties: *nparty, Recorder: rec, Fault: fault,
		})
		if err != nil {
			return err
		}
		// One covariance release over [X | y]: C = B = 1 makes the
		// augmented norm bound √2.
		d2, d1 := pca.Sensitivities(*gamma, math.Sqrt2, loaded.X.Cols+1)
		acct.AddSkellam(d1, d2, m.Mu)
		ledgerLine()
		fmt.Fprintf(stderr, "sqmrun: training R^2 = %.4f at (eps=%g, delta=%g)\n",
			linreg.R2(m, loaded.X, loaded.Labels), *eps, *delta)
		return csvio.WriteVector(w, m.W, "weight")
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// debugMux mounts net/http/pprof under /debug/pprof/ — diagnostics for
// a loopback or firewalled port, not a public API.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
