// Package core implements the Skellam Quantization Mechanism (SQM), the
// paper's primary contribution: a distributed-DP protocol for evaluating
// polynomial aggregates over a vertically partitioned database without
// any trusted party.
//
// The mechanism (Algorithms 1 and 3) is written once; the polynomial
// sum, the covariance (one-shot and streamed) and the logistic-regression
// gradient are instantiations that plug their aggregate into it:
//
//  1. every client quantizes its private column with Algorithm 2
//     (up-scale by γ, stochastic rounding) — quantizeByClient, package
//     quant;
//  2. the public polynomial's coefficients are pre-processed so that
//     every monomial carries the same overall factor γ^{λ+1} — package
//     poly, or the gradient protocol's link;
//  3. every client privately samples a share Sk(μ/n) of the Skellam
//     noise — release.sampleNoise, package randx;
//  4. the static bound on the aggregate is checked against the field,
//     and only then is the engine selected — release.evaluate, the one
//     place Params.Engine forks. The plaintext integer engine adds the
//     shares onto the aggregate (release.addNoise); the BGW engines
//     (package bgw) record the columns as inputs their parties deal and
//     the per-client noise vectors as inputs their parties add at the
//     opening (Params.inputColumns, inputNoise) and run the compiled plan
//     on a fresh engine (release.runOnce). The two are output-identical
//     because BGW computes exactly;
//  5. the Trace is closed (release.finish) and the server down-scales
//     the opened result by γ^{λ+1}, or γ^λ for the coefficient-1
//     monomials of Algorithm 1 (Trace.estimate).
//
// Params.meter books a release with the accountant when an engine starts
// (release.evaluate). The specialized protocols of §V — the covariance
// matrix for PCA and the Taylor-approximated logistic-regression gradient
// — live in covariance.go, stream.go and lr.go.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/dp"
	"sqm/internal/field"
	"sqm/internal/linalg"
	"sqm/internal/obs"
	"sqm/internal/quant"
	"sqm/internal/randx"
	"sqm/internal/retry"
	"sqm/internal/transport"
)

// EngineKind selects the evaluation backend.
type EngineKind int

const (
	// EnginePlain evaluates the quantized integers directly. Because
	// BGW computes exactly, the output distribution is identical to
	// the MPC engines; this is the fast path for utility experiments.
	EnginePlain EngineKind = iota
	// EngineBGW runs the secret-shared protocol with the parties of
	// the BGW engine inline in the caller's goroutine; shares change
	// hands in memory and are counted where they are handed over.
	EngineBGW
	// EngineActorBGW runs the same parties as one goroutine each,
	// exchanging framed shares over an in-memory channel mesh; messages
	// and bytes are the mesh's counters.
	EngineActorBGW
	// EngineActorBGWNet is EngineActorBGW with the share traffic
	// carried over localhost TCP sockets using the session layer's
	// framing.
	EngineActorBGWNet
)

// IsMPC reports whether the kind runs the real secret-shared protocol.
func (k EngineKind) IsMPC() bool {
	return k == EngineBGW || k == EngineActorBGW || k == EngineActorBGWNet
}

// String names the kind as accepted by the CLI's -engine flag.
func (k EngineKind) String() string {
	switch k {
	case EnginePlain:
		return "plain"
	case EngineBGW:
		return "bgw"
	case EngineActorBGW:
		return "actor"
	case EngineActorBGWNet:
		return "actor-net"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngineKind maps a CLI name to its engine kind.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "plain":
		return EnginePlain, nil
	case "bgw":
		return EngineBGW, nil
	case "actor":
		return EngineActorBGW, nil
	case "actor-net":
		return EngineActorBGWNet, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (want plain, bgw, actor or actor-net)", s)
}

// Params configures one SQM invocation.
type Params struct {
	Gamma      float64       // scaling parameter γ >= 1 (Algorithm 2)
	Mu         float64       // aggregate Skellam parameter μ; clients sample Sk(μ/n)
	NumClients int           // n, the noise-contributing clients; 0 means one per column
	Engine     EngineKind    // evaluation backend
	Parties    int           // parties P of every MPC engine; 0 means 4
	Threshold  int           // BGW threshold t; 0 means floor((P-1)/2)
	Latency    time.Duration // per-round message latency; 0 means 100 ms
	Seed       uint64        // reproducibility seed
	Recorder   obs.Recorder  // telemetry sink for engine and mesh; nil disables
	Fault      FaultConfig   // deadlines and dial budget of the abort model (zero value: none)
	// Trace attaches distributed tracing: the engine's events are
	// stamped into the coordinator stream's flight recorder, and — when
	// the context carries one stream per party — the mesh propagates
	// (trace, sender, lclock) in-band so per-party streams merge into
	// one causal timeline. Nil disables tracing.
	Trace *obs.TraceContext
	// Acct, when non-nil, receives the RDP curve of this invocation's
	// Skellam release at the protocol's generic sensitivity bound
	// (unit-norm records). Applications with tighter closed-form
	// sensitivities (PCA, the LR trainers) account at their own layer
	// and leave this nil to avoid double counting.
	Acct *dp.Accountant
}

// FaultConfig holds the deadlines and the dial budget the CLIs thread
// down to the engines and meshes. There is one failure model, abort: a
// session that loses a participant fails, and these decide how soon it
// notices. The zero value is the trusting default: blocking receives,
// single dial attempts.
type FaultConfig struct {
	// RecvTimeout bounds every party-to-party receive of the actor
	// engines; a silent peer surfaces as transport.ErrTimeout instead of
	// a hang. 0 keeps receives blocking.
	RecvTimeout time.Duration
	// DialRetries is the attempt budget for the TCP mesh's pair dials
	// (EngineActorBGWNet); values below 1 mean a single attempt.
	DialRetries int
	// DialBackoff is the base backoff between dial attempts (doubled per
	// retry, seeded jitter); 0 means the retry package default.
	DialBackoff time.Duration
}

func (p *Params) normalize(cols int) error {
	if p.Gamma < 1 {
		return fmt.Errorf("core: gamma must be >= 1, got %v", p.Gamma)
	}
	if p.Mu < 0 {
		return fmt.Errorf("core: mu must be non-negative, got %v", p.Mu)
	}
	if p.NumClients == 0 {
		p.NumClients = cols
	}
	if p.NumClients < 1 {
		return fmt.Errorf("core: need at least one client, got %d", p.NumClients)
	}
	if p.Engine.IsMPC() {
		if p.Parties == 0 {
			p.Parties = 4
		}
		if p.Parties < 3 {
			return fmt.Errorf("core: BGW needs at least 3 parties, got %d", p.Parties)
		}
	}
	if p.Trace != nil && p.Trace.Parties() != 0 && p.Engine.IsMPC() && p.Trace.Parties() != p.Parties {
		return fmt.Errorf("core: trace context has %d party streams, engine has %d parties",
			p.Trace.Parties(), p.Parties)
	}
	if p.Latency == 0 {
		p.Latency = bgw.DefaultLatency
	}
	return nil
}

// clientOf maps column j to its owning client (block partition, as in
// the paper's experiments where n attributes are evenly split over P
// clients).
func (p *Params) clientOf(col, cols int) int {
	if p.NumClients >= cols {
		return col
	}
	return col * p.NumClients / cols
}

// partyOf maps a client to the BGW party simulating it.
func (p *Params) partyOf(client int) int {
	if !p.Engine.IsMPC() {
		return 0
	}
	return client % p.Parties
}

// meter books one Skellam release at the given L2/L1 sensitivities — the
// order every sensitivity function of this repository returns them in —
// when the caller attached an accountant.
func (p *Params) meter(delta2, delta1 float64) {
	if p.Acct != nil {
		p.Acct.AddSkellam(delta1, delta2, p.Mu)
	}
}

// chanMesh builds EngineActorBGW's mesh. A variable so the fault tests can
// wrap it in a transport.FaultMesh.
var chanMesh = func(parties int, opts ...transport.Option) transport.Mesh {
	return transport.NewChanMesh(parties, opts...)
}

// newEvaluator constructs the MPC backend selected by p.Engine. The
// seed perturbation keeps each protocol's share randomness on its own
// stream, as before the backends became pluggable. The caller owns the
// evaluator and must Close it.
func (p *Params) newEvaluator(seedXor uint64) (bgw.Evaluator, error) {
	rec := p.Recorder
	if p.Trace != nil && obs.TraceOf(rec) == nil {
		// The engine runs on the coordinator goroutine: its events land
		// on the coordinator stream, stamped and flight-recorded.
		rec = p.Trace.Coordinator().Wrap(rec)
	}
	cfg := bgw.Config{
		Parties: p.Parties, Threshold: p.Threshold,
		Seed: p.Seed ^ seedXor, Recorder: rec, RecvTimeout: p.Fault.RecvTimeout,
	}
	meshOpts := []transport.Option{transport.WithRecorder(rec)}
	if p.Trace != nil && p.Trace.Parties() == p.Parties {
		meshOpts = append(meshOpts, transport.WithTracer(p.Trace))
	}
	switch p.Engine {
	case EngineBGW:
		eng, err := bgw.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		return bgw.Eval(eng), nil
	case EngineActorBGW:
		return bgw.NewActorEngine(cfg, chanMesh(cfg.Parties, meshOpts...))
	case EngineActorBGWNet:
		meshOpts = append(meshOpts, transport.WithDialRetry(retry.Policy{
			Attempts: p.Fault.DialRetries,
			Base:     p.Fault.DialBackoff,
			Jitter:   0.5,
			Seed:     p.Seed ^ 0xd1a1,
			Recorder: rec,
			Name:     "core.dial",
		}))
		mesh, err := transport.NewTCPMesh(cfg.Parties, meshOpts...)
		if err != nil {
			return nil, err
		}
		return bgw.NewActorEngine(cfg, mesh)
	}
	return nil, errUnknownEngine(p.Engine)
}

func errUnknownEngine(k EngineKind) error {
	return fmt.Errorf("core: unknown engine %v", k)
}

// Trace reports diagnostics of one SQM invocation: the scaled integer
// output, the applied down-scaling, and the cost model inputs used by
// the timing experiments (Tables II, IV, V).
type Trace struct {
	Scaled []int64       // ŷ before the server's down-scaling
	Scale  float64       // the divisor (γ^{λ+1}, or γ^λ for Algorithm 1)
	Stats  bgw.Stats     // protocol counters (zero for EnginePlain)
	Lat    time.Duration // per-round latency used for simulated time

	Compute      time.Duration // wall-clock of the full evaluation
	NoiseCompute time.Duration // wall-clock of noise sampling + aggregation
}

// TotalTime is the modeled end-to-end cost: measured computation plus
// simulated network latency (rounds × Latency), the paper's timing
// model.
func (t *Trace) TotalTime() time.Duration {
	return t.Compute + time.Duration(t.Stats.Rounds)*t.Lat
}

// NoiseTime is the part of TotalTime attributable to enforcing DP: the
// clients' sampling. It has no latency term — the noise is an input that
// reaches nothing but the opening, so no party shares it and it costs no
// round (circuit.Plan.schedule).
func (t *Trace) NoiseTime() time.Duration { return t.NoiseCompute }

// release is one SQM invocation in flight, from the clients' quantized
// columns to the server's estimate. Its methods are the stages every
// instantiation shares; the package comment lists them.
type release struct {
	p     *Params
	rngs  []*randx.RNG // the clients' private streams
	tr    *Trace
	start time.Time
}

// begin starts the clock of one release over the clients' streams.
func (p *Params) begin(rngs []*randx.RNG) *release {
	return &release{p: p, rngs: rngs, tr: &Trace{Lat: p.Latency}, start: time.Now()}
}

// noiseTime books the time since t0 as spent enforcing DP.
func (r *release) noiseTime(t0 time.Time) { r.tr.NoiseCompute += time.Since(t0) }

// noiseShare is the Skellam parameter of one client's share, μ/n: the n
// shares sum to the Sk(μ) the accountant is told about.
func (r *release) noiseShare() float64 { return r.p.Mu / float64(len(r.rngs)) }

// sampleNoise draws every client's share of the noise on dims outputs:
// out[j][t] ~ Sk(μ/n), client j drawing from its own private stream.
func (r *release) sampleNoise(dims int) [][]int64 {
	defer r.noiseTime(time.Now())
	out := make([][]int64, len(r.rngs))
	for j, g := range r.rngs {
		out[j] = g.SkellamVec(dims, r.noiseShare())
	}
	return out
}

// sensitivities are a release's L2/L1 bounds, as meter takes them.
type sensitivities struct{ delta2, delta1 float64 }

func sens(delta2, delta1 float64) *sensitivities { return &sensitivities{delta2, delta1} }

// evaluate runs the aggregate on the engine Params selects. bound is the
// static bound on the noiseless aggregate: it is checked with the noise
// tail against the field's signed range before the engine is looked at,
// so every engine refuses the same Params. The ledger is charged between
// the two: refused parameters cost nothing, and once an engine starts the
// release is booked whether or not the session completes — a session cut
// in its opening round has shown up to P−1 parties the output. A nil s is
// a release its caller booked before any engine started (the LR trainers'
// subsampled composition).
func (r *release) evaluate(bound float64, s *sensitivities, plain, mpc func() ([]int64, error)) ([]int64, error) {
	if err := checkFieldBound(bound + noiseMargin(r.p.Mu)); err != nil {
		return nil, err
	}
	if s != nil {
		r.p.meter(s.delta2, s.delta1)
	}
	switch {
	case r.p.Engine == EnginePlain:
		return plain()
	case r.p.Engine.IsMPC():
		return mpc()
	}
	return nil, errUnknownEngine(r.p.Engine)
}

// addNoise is the plain engine's noise injection: every client's share
// vector added onto the aggregate.
func (r *release) addNoise(sum []int64, noise [][]int64) {
	defer r.noiseTime(time.Now())
	for _, shares := range noise {
		for t, z := range shares {
			sum[t] += z
		}
	}
}

// inputColumns records every column of data as an input vector dealt by
// the party hosting the column's client, in a partition of total columns
// (the LR label column is one more than data holds).
func (p *Params) inputColumns(b *circuit.Builder, data *quant.IntMatrix, total int) []bgw.Vec {
	cols := make([]bgw.Vec, data.Cols)
	for j := range cols {
		cols[j] = b.InputVec(p.partyOf(p.clientOf(j, total)), data.Col(j))
	}
	return cols
}

// inputNoise records client j's noise share vector as an input of the
// party hosting it, added onto acc (nil starts the chain). The recording
// names every client's vector; Compile folds the leaves one party holds
// in that sum tree into their field sum (with one client per party
// nothing folds), and because the chain reaches nothing but the release's
// opening, no party shares what is left: each adds its sum to the row it
// publishes, under the opening's zero mask (PRIVACY.md "Add what only you
// know at the opening"). The noise costs no frame and no round, and the
// opened integers are the same as if every vector had been shared.
func (p *Params) inputNoise(b *circuit.Builder, acc bgw.Vec, j int, shares []int64) bgw.Vec {
	v := b.InputVec(p.partyOf(j), shares)
	if acc == nil {
		return v
	}
	return b.AddVec(acc, v)
}

// execute runs a plan on eng and returns its result with the engine's
// counters as the run left them.
func execute(eng bgw.Evaluator, plan *circuit.Plan, bind circuit.Bindings) (*circuit.Result, bgw.Stats, error) {
	res, err := plan.Execute(eng, bind)
	if err == nil {
		err = eng.Err()
	}
	if err != nil {
		return nil, bgw.Stats{}, err
	}
	return res, eng.Stats(), nil
}

// runOnce compiles what b recorded and executes it on a fresh engine of
// the selected kind, whose counters become the Trace's.
func (r *release) runOnce(b *circuit.Builder, seedXor uint64) (*circuit.Result, error) {
	plan, err := b.Compile()
	if err != nil {
		return nil, err
	}
	eng, err := r.p.newEvaluator(seedXor)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res, stats, err := execute(eng, plan, circuit.Bindings{})
	r.tr.Stats = stats
	return res, err
}

// finish closes the Trace on the server's side: it keeps the opened
// integers and the divisor, and stops the clock.
func (r *release) finish(scaled []int64, scale float64) *Trace {
	r.tr.Scaled, r.tr.Scale = scaled, scale
	r.tr.Compute = time.Since(r.start)
	return r.tr
}

// estimate is the server's down-scaling: ŷ/Scale per output.
func (t *Trace) estimate() []float64 {
	est := make([]float64, len(t.Scaled))
	for i, v := range t.Scaled {
		est[i] = float64(v) / t.Scale
	}
	return est
}

// ErrFieldOverflow reports that the statically bounded aggregate cannot
// be embedded into the BGW field without wrap-around — the caller must
// lower γ or μ. Detecting this *before* running the protocol is what
// keeps the implementation aligned with the sensitivity analysis (see
// "On discretization", §V-C).
var ErrFieldOverflow = errors.New("core: aggregate bound exceeds the MPC field's signed range")

// noiseMargin bounds |Sk(mu)| with overwhelming probability for the
// static overflow check: 16 standard deviations plus slack.
func noiseMargin(mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	return 16*math.Sqrt(2*mu) + 64
}

// checkFieldBound verifies that |bound| fits the signed embedding.
func checkFieldBound(bound float64) error {
	if bound >= float64(field.MaxSignedValue) {
		return ErrFieldOverflow
	}
	return nil
}

// rngFamily derives the root, public-coin and per-client private
// streams for one invocation.
func rngFamily(seed uint64, clients int) (pub *randx.RNG, clientRNGs []*randx.RNG) {
	root := randx.New(seed)
	pub = root.Fork()
	clientRNGs = make([]*randx.RNG, clients)
	for j := range clientRNGs {
		clientRNGs[j] = root.Fork()
	}
	return pub, clientRNGs
}

// quantizeByClient runs Algorithm 2 on every column using the owning
// client's private randomness.
func quantizeByClient(x *linalg.Matrix, p *Params, clientRNGs []*randx.RNG) *quant.IntMatrix {
	out := quant.NewIntMatrix(x.Rows, x.Cols)
	for j := 0; j < x.Cols; j++ {
		g := clientRNGs[p.clientOf(j, x.Cols)]
		for i := 0; i < x.Rows; i++ {
			out.Set(i, j, g.StochasticRound(p.Gamma*x.At(i, j)))
		}
	}
	return out
}
