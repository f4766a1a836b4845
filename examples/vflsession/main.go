// A complete VFL session over the wire protocol: three clients and a
// coordinator exchange versioned binary frames through the session
// layer — hello, parameters and their ack (each client quantizes its
// column and samples its Skellam shares *before* any evaluation round,
// as the DP analysis requires), then two evaluation rounds whose opened
// results are broadcast back to every client.
//
// Everything crosses real sockets: the session frames travel over
// localhost TCP connections (RunVFLSessionTCP), and each round's MPC
// runs the party-actor BGW engine whose share messages travel over
// their own TCP mesh (EngineActorBGWNet).
//
// The run is instrumented: a telemetry recorder writes the session
// lifecycle events on stderr, a privacy-budget ledger reports the
// running ε(δ) after each noise release, and each round's MPC cost —
// rounds, frames and bytes from the engine's own counters — is printed
// at the end.
//
// Run with: go run ./examples/vflsession
//
// Pass -trace-dir to additionally record a distributed trace: the
// session coordinator and all three mesh parties stamp their events
// with a shared trace id and Lamport clocks, and dump per-party JSONL
// flight-recorder files into the directory on exit. Merge them into
// one causally ordered timeline with:
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

	const gamma = 2048.0
	delta2 := 1.5 * gamma * gamma * gamma // Σ|coef|·c^deg, scaled by γ^{λ+1}
	mu, err := sqm.CalibrateSkellamMu(1.0, 1e-5, delta2*1.8, delta2, 1, 1)
	if err != nil {
		log.Fatal(err)
	}

	params := sqm.SessionParams{
		Gamma: gamma, Mu: mu, NumClients: 3, OutDim: 1, Rounds: 2, Seed: 11,
	}

	// Telemetry: structured events on stderr from the session
	// coordinator and the BGW engines. The accountant ledger reports the
	// running ε(δ) after each of the two per-round Skellam releases.
	var rec sqm.Recorder = sqm.NewLogRecorder(os.Stderr, "text", sqm.LevelInfo)

	// One trace context spans the whole run: the session coordinator
	// and the three BGW mesh parties share the trace id, so sqmtrace
	// can merge their dumps into a single causal timeline. Wrapping the
	// recorder up front also routes the ledger's dp.release events into
	// the coordinator's flight recorder.
	var tc *sqm.TraceContext
	if *traceDir != "" {
		tc = sqm.NewTraceContext(sqm.DeriveTraceID(params.Seed, 3), 3)
		rec = tc.Coordinator().Wrap(rec)
	}

	const delta = 1e-5
	acct := sqm.NewAccountant(0)
	acct.Observe(rec, delta)
	acct.SetBudget(2.5) // two rounds at eps=1 each compose below this
	hooks := make([]sqm.SessionClientHooks, 3)
	for i := range hooks {
		id := i
		hooks[i] = sqm.SessionClientHooks{
			OnParams: func(p sqm.SessionParams) error {
				fmt.Printf("client %d: committed quantization (γ=%g) and noise share Sk(μ/3)\n", id, p.Gamma)
				return nil
			},
			OnEvalRequest: func(round uint32) error {
				fmt.Printf("client %d: contributed shares for round %d\n", id, round)
				return nil
			},
		}
	}

	var scale float64
	var costs []*sqm.Trace
	outcomes, err := sqm.RunVFLSessionTCP(params, hooks, func(round uint32) ([]int64, error) {
		_, tr, err := sqm.EvaluatePolynomialSum(f, x, sqm.Params{
			Gamma: params.Gamma, Mu: params.Mu, NumClients: 3,
			Engine: sqm.EngineActorBGWNet, Parties: 3,
			Seed:     params.Seed + uint64(round),
			Recorder: rec,
			Trace:    tc,
		})
		if err != nil {
			return nil, err
		}
		// One Skellam release per round enters the privacy ledger.
		acct.AddSkellam(delta2*1.8, delta2, params.Mu)
		scale = tr.Scale
		costs = append(costs, tr)
		return tr.Scaled, nil
	}, sqm.WithSessionRecorder(rec), sqm.WithSessionTrace(tc), sqm.WithSessionTraceDir(*traceDir))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntrue aggregate: %.4f\n", truth)
	for _, o := range outcomes {
		if o.Err != nil {
			log.Fatalf("client %d failed: %v", o.Client, o.Err)
		}
		fmt.Printf("client %d received", o.Client)
		for _, r := range o.Results {
			fmt.Printf("  round %d: %.4f", r.Round, float64(r.Scaled[0])/scale)
		}
		fmt.Println()
	}
	fmt.Println("\nevery client saw the identical DP-protected aggregate; the session layer")
	fmt.Println("enforces that every client samples its noise before any evaluation round.")

	eps, alpha := acct.Epsilon(delta)
	fmt.Printf("\nprivacy ledger: eps(delta=%g) = %.4f @ alpha=%d over %d release(s)\n",
		delta, eps, alpha, acct.Releases())
	for r, tr := range costs {
		fmt.Printf("round %d MPC: %d rounds, %d frames, %d bytes\n", r, tr.Stats.Rounds, tr.Stats.Frames, tr.Stats.Bytes)
	}
}
