// A VFL run over real sockets: three clients each hold one column, and
// two releases of the same polynomial aggregate are evaluated by three
// BGW parties whose share frames cross a localhost TCP mesh
// (EngineActorBGWNet). Each client quantizes its column and draws its
// Skellam shares inside the release; party 0 alone decodes the opened
// integers.
//
// The run is instrumented: a telemetry recorder writes the engines'
// events on stderr, a privacy-budget ledger reports the running ε(δ)
// after each release, and each release's MPC cost — rounds, frames and
// bytes from the engine's own counters — is printed at the end.
//
// Run with: go run ./examples/vflsession
//
// Pass -trace-dir to additionally record a distributed trace: the
// coordinator stream (with the ledger's events) and all three mesh
// parties stamp their events with one trace id and Lamport clocks, and
// dump per-party JSONL flight-recorder files into the directory on
// exit, a failed run included. Merge them into one causally ordered
// timeline with:
//
//	go run ./cmd/sqmtrace <trace-dir>
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sqm"
)

func main() {
	traceDir := flag.String("trace-dir", "", "dump per-party trace JSONL into this directory")
	flag.Parse()
	if err := run(*traceDir); err != nil {
		log.Fatal(err)
	}
}

func run(traceDir string) (err error) {
	// The shared database: 200 records, one column per client.
	x := sqm.NewMatrix(200, 3)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		row[0] = 0.2 + 0.3*float64(i%5)/5
		row[1] = 0.4 - 0.2*float64(i%7)/7
		row[2] = 0.1 + 0.25*float64(i%3)/3
	}
	// The aggregate of interest: F(X) = Σ x1·x2 + 0.5·x3².
	f := sqm.MustMulti(sqm.MustPolynomial(3,
		sqm.Monomial{Coef: 1, Exps: []int{1, 1, 0}},
		sqm.Monomial{Coef: 0.5, Exps: []int{0, 0, 2}},
	))
	truth := 0.0
	for i := 0; i < x.Rows; i++ {
		r := x.Row(i)
		truth += r[0]*r[1] + 0.5*r[2]*r[2]
	}

	const gamma, delta, seed, parties = 2048.0, 1e-5, 11, 3
	delta2 := 1.5 * gamma * gamma * gamma // Σ|coef|·c^deg, scaled by γ^{λ+1}
	mu, err := sqm.CalibrateSkellamMu(1.0, delta, delta2*1.8, delta2, 1, 1)
	if err != nil {
		return err
	}

	// One trace context spans both releases: the coordinator stream and
	// the three mesh parties share the trace id, so sqmtrace can merge
	// their dumps into one causal timeline. Wrapping the recorder routes
	// the ledger's dp.release events into the coordinator stream.
	var rec sqm.Recorder = sqm.NewLogRecorder(os.Stderr, "text", sqm.LevelInfo)
	if traceDir != "" {
		tc := sqm.NewTraceContext(sqm.DeriveTraceID(seed, parties), parties)
		rec = tc.Coordinator().Wrap(rec)
		defer func() {
			if _, derr := tc.DumpAll(traceDir); derr != nil && err == nil {
				err = derr
			}
		}()
	}
	acct := sqm.NewAccountant(0)
	acct.Observe(rec, delta)
	acct.SetBudget(2.5) // two releases at ε = 1 each compose below this

	fmt.Printf("true aggregate: %.4f\n", truth)
	var costs []*sqm.Trace
	for release := 0; release < 2; release++ {
		est, tr, err := sqm.EvaluatePolynomialSum(f, x, sqm.Params{
			Gamma: gamma, Mu: mu, NumClients: 3,
			Engine: sqm.EngineActorBGWNet, Parties: parties,
			Seed:     seed + uint64(release),
			Recorder: rec,
		})
		if err != nil {
			return fmt.Errorf("release %d: %w", release, err)
		}
		acct.AddSkellam(delta2*1.8, delta2, mu)
		fmt.Printf("release %d: %.4f\n", release, est[0])
		costs = append(costs, tr)
	}

	eps, alpha := acct.Epsilon(delta)
	fmt.Printf("\nprivacy ledger: eps(delta=%g) = %.4f @ alpha=%d over %d release(s)\n",
		delta, eps, alpha, acct.Releases())
	for r, tr := range costs {
		fmt.Printf("release %d MPC: %d rounds, %d frames, %d bytes\n", r, tr.Stats.Rounds, tr.Stats.Frames, tr.Stats.Bytes)
	}
	return nil
}
