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
//     (up-scale by γ, stochastic rounding) — quantizeByClient, into one
//     column-major array whose columns the MPC plans record as they are
//     — the clients split across the cores (chunk.Run);
//  2. the public polynomial's coefficients are pre-processed so that
//     every monomial carries the same overall factor γ^{λ+1} — package
//     poly, or the gradient protocol's link;
//  3. the static bound on the aggregate is checked against the field,
//     the release is booked (Params.meter), and only then is the noise
//     drawn and the engine selected — release.evaluate, the one place
//     Params.Engine forks and the one path every release's noise takes,
//     so a refused release books nothing and draws nothing;
//  4. every client privately samples a share Sk(μ/n) of the Skellam
//     noise from its own stream, drawn onto the one vector of the noise
//     holder hosting it, the holders split across the cores, each worker
//     drawing through its own sampler (release.sampleNoise,
//     randx.SkellamSampler). The plaintext integer engine computes the
//     aggregate, and its one holder's vector is that aggregate: the
//     shares are drawn onto it in place (dp.NoiseOnto). On the BGW
//     engines (package bgw) the draw runs beside the rest of the release
//     (release.drawNoise, span core.noise): the plan records the columns
//     as inputs their parties deal and every party's noise vector as an
//     input it adds at the opening (Params.inputColumns, inputNoise), and
//     runs on a fresh engine (release.runOnce): the parties deal the
//     columns in one input round, multiply, and only then join the draw
//     and take the noise. The two are output-identical because BGW
//     computes exactly;
//  5. the Trace is closed (release.finish) and the server down-scales
//     the opened result by γ^{λ+1}, or γ^λ for the coefficient-1
//     monomials of Algorithm 1 (Trace.estimate).
//
// The dp.Booking that Params.meter returns is the only key to the
// release's noise (dp.Noise). The specialized protocols of §V — the
// covariance matrix for PCA and the Taylor-approximated
// logistic-regression gradient — live in covariance.go, stream.go and
// lr.go.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/chunk"
	"sqm/internal/circuit"
	"sqm/internal/dp"
	"sqm/internal/field"
	"sqm/internal/linalg"
	"sqm/internal/obs"
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
	// EngineBGW runs the secret-shared protocol: the parties of the BGW
	// engine run as one goroutine each, exchanging framed shares over an
	// in-memory channel mesh; messages and bytes are the mesh's counters.
	EngineBGW
	// EngineActorBGW is EngineBGW under a second name: the same engine
	// over the same mesh.
	EngineActorBGW
	// EngineActorBGWNet is EngineActorBGW with the share traffic
	// carried over localhost TCP sockets in internal/protocol's
	// frames.
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
	Gamma      float64    // scaling parameter γ >= 1 (Algorithm 2)
	Mu         float64    // aggregate Skellam parameter μ; clients sample Sk(μ/n)
	NumClients int        // n, the noise-contributing clients; 0 means one per column
	Engine     EngineKind // evaluation backend
	Parties    int        // parties P of every MPC engine; 0 means 4
	Threshold  int        // BGW threshold t; 0 means floor((P-1)/2)
	// Seed keys all of the invocation's randomness: every client's
	// rounding coins and Skellam shares (rngFamily, one stream per
	// client) and, XORed with a per-protocol constant, the engine's
	// share, mask and dealing streams. One seed that every participant
	// knows simulates the trust model in one process; against a
	// participant who knows it the delivered ε is not the booked one,
	// since it can recompute every client's noise. No code path keys
	// from randx.NewSecure or randx.NewFromOS yet.
	Seed uint64
	// Recorder is the telemetry sink of the engine, the mesh and the
	// release's own spans; nil disables. A recorder wrapped with a trace
	// context's coordinator stream (obs.PartyTrace.Wrap) also attaches
	// distributed tracing: the engine's events are stamped into that
	// stream's flight recorder, and — when the context carries one
	// stream per party — the mesh propagates (trace, sender, lclock)
	// in-band so per-party streams merge into one causal timeline.
	Recorder obs.Recorder
	Fault    FaultConfig // deadlines and dial budget of the abort model (zero value: none)
	// Acct, when non-nil, receives the RDP curve of this invocation's
	// Skellam release at the protocol's generic sensitivity bound
	// (unit-norm records; a gradient step's at LRProtocol.Sensitivity).
	// Applications with tighter closed-form sensitivities (PCA, the LR
	// trainers) account at their own layer and leave this nil to avoid
	// double counting.
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
	// (EngineActorBGWNet); values below 1 mean a single attempt. The
	// backoff between attempts is the retry package's default, doubled
	// per retry with seeded jitter.
	DialRetries int
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
	if tc := obs.TraceOf(p.Recorder).Context(); tc != nil && tc.Parties() != 0 && p.Engine.IsMPC() && tc.Parties() != p.Parties {
		return fmt.Errorf("core: trace context has %d party streams, engine has %d parties",
			tc.Parties(), p.Parties)
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
// with the caller's accountant, and returns the Booking the release's
// noise opens to. A nil Acct records nothing and still mints one.
func (p *Params) meter(delta2, delta1 float64) dp.Booking {
	return p.Acct.AddSkellam(delta1, delta2, p.Mu)
}

// chanMesh builds the mesh of EngineBGW and EngineActorBGW. A variable so
// the fault tests can wrap it in a transport.FaultMesh.
var chanMesh = func(parties int, opts ...transport.Option) transport.Mesh {
	return transport.NewChanMesh(parties, opts...)
}

// newEvaluator constructs the MPC backend selected by p.Engine. The
// seed perturbation keeps each protocol's share randomness on its own
// stream, as before the backends became pluggable. The caller owns the
// evaluator and must Close it.
func (p *Params) newEvaluator(seedXor uint64) (bgw.Evaluator, error) {
	cfg := bgw.Config{
		Parties: p.Parties, Threshold: p.Threshold,
		Seed: p.Seed ^ seedXor, Recorder: p.Recorder, RecvTimeout: p.Fault.RecvTimeout,
	}
	var meshOpts []transport.Option
	if tc := obs.TraceOf(p.Recorder).Context(); tc != nil && tc.Parties() == p.Parties {
		meshOpts = append(meshOpts, transport.WithTracer(tc))
	}
	switch p.Engine {
	case EngineBGW, EngineActorBGW:
		return bgw.NewActorEngine(cfg, chanMesh(cfg.Parties, meshOpts...))
	case EngineActorBGWNet:
		meshOpts = append(meshOpts, transport.WithDialRetry(retry.Policy{
			Attempts: p.Fault.DialRetries,
			Jitter:   0.5,
			Seed:     p.Seed ^ 0xd1a1,
			Recorder: p.Recorder,
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
	Scaled []int64   // ŷ before the server's down-scaling
	Scale  float64   // the divisor (γ^{λ+1}, or γ^λ for Algorithm 1)
	Stats  bgw.Stats // protocol counters (zero for EnginePlain)

	Compute time.Duration // wall-clock of the full evaluation
	// NoiseCompute is the wall-clock of the noise draw. On the BGW
	// engines the draw runs beside the engine (release.drawNoise), so it
	// overlaps the rest of Compute instead of adding to it.
	NoiseCompute time.Duration
	// NoiseSamples counts the Skellam draws behind the noise: every
	// client draws one share per output, whatever the record count.
	NoiseSamples int64
}

// TotalTime is the modeled end-to-end cost: measured computation plus
// simulated network latency (rounds × bgw.DefaultLatency), the paper's
// timing model.
func (t *Trace) TotalTime() time.Duration {
	return t.Compute + t.Stats.NetTime(bgw.DefaultLatency)
}

// NoiseTime is the part of TotalTime attributable to enforcing DP: the
// clients' sampling. It has no latency term — the noise is an input that
// reaches nothing but the opening, so no party shares it and it costs no
// round (circuit.Plan.schedule) — and on the BGW engines it overlaps the
// rest of Compute (NoiseCompute).
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
	return &release{p: p, rngs: rngs, tr: &Trace{}, start: time.Now()}
}

// noiseShare is the Skellam parameter of one client's share, μ/n: the n
// shares sum to the Sk(μ) the accountant is told about.
func (r *release) noiseShare() float64 { return r.p.Mu / float64(len(r.rngs)) }

// holders is the number of noise vectors a release draws: one per party
// that hosts a client on an MPC engine, one on the plaintext engine.
func (r *release) holders() int {
	if r.p.Engine.IsMPC() {
		return min(len(r.rngs), r.p.Parties)
	}
	return 1
}

// sampleNoise draws every client's share of the noise onto the vector of
// the noise holder hosting the client, in out: holder h's vector receives
// the Sk(μ/n) shares of party h's clients on an MPC engine, and all n on
// the plaintext engine. The holders are split across the cores
// (chunk.Run; the plaintext engine's one holder stays on the caller's
// goroutine); each worker draws its holders' clients in client order,
// each from its own private stream, through its own sampler of Sk(μ/n) —
// one PTRS acceptance table per worker, on the worker's stack — so the
// sums are those of the per-client vectors whatever the core count.
func (r *release) sampleNoise(out dp.Noise) {
	mu := r.noiseShare()
	chunk.Run(r.holders(), runtime.GOMAXPROCS(0), func(lo, hi int) {
		s := randx.NewSkellamSampler(mu)
		for j, g := range r.rngs {
			if h := r.p.partyOf(j); h >= lo && h < hi {
				out.Draw(h, &s, g)
			}
		}
	})
}

// noiseDraw is a release's noise draw: sampleNoise onto the holders'
// vectors, in the span core.noise, which runs from the draw's start to
// its join.
type noiseDraw struct {
	r       *release
	holders int
	noise   dp.Noise // the holders' vectors, complete once done closes
	span    obs.TracedSpan
	done    chan struct{}
	took    time.Duration // the draw's wall-clock, set before done closes
	joined  bool
	// booking is the release's, set by release.evaluate before the plan
	// enters the noise (vectors).
	booking dp.Booking
}

// startNoise opens the draw of every client's share of dims entries onto
// noise's holders; run draws.
func (r *release) startNoise(noise dp.Noise, dims int) *noiseDraw {
	r.tr.NoiseSamples += int64(len(r.rngs) * dims)
	d := &noiseDraw{r: r, holders: r.holders(), noise: noise, done: make(chan struct{})}
	d.span = obs.StartTracedSpan(r.p.Recorder, "core.noise", 0, obs.Int("holders", d.holders), obs.Int("dims", dims))
	return d
}

// run is the draw itself, timed.
func (d *noiseDraw) run() {
	defer close(d.done)
	start := time.Now()
	d.r.sampleNoise(d.noise)
	d.took = time.Since(start)
}

// drawNoise starts the draw of dims entries onto fresh holder vectors on
// a goroutine of its own, which splits the holders across the cores as
// sampleNoise always does. The noise reaches nothing but the opening, so
// whatever an MPC release does before its opening — record and compile
// its plan, build the engine, deal the columns, multiply — overlaps the
// draw, if the noise leaves are bound to join (inputNoise). The caller
// must join the draw on every path: the clients' streams are the draw's
// until then.
func (r *release) drawNoise(dims int) *noiseDraw {
	d := r.startNoise(dp.NewNoise(r.holders(), dims), dims)
	go d.run()
	return d
}

// join waits for the draw and returns the holders' noise, and so does
// every later call. The first books the draw's wall-clock in the
// release's Trace.NoiseCompute and ends the core.noise span, on the
// caller's goroutine.
func (d *noiseDraw) join() dp.Noise {
	if !d.joined {
		<-d.done
		d.joined = true
		d.r.tr.NoiseCompute += d.took
		d.span.End(obs.Float64("draw_seconds", d.took.Seconds()))
	}
	return d.noise
}

// vectors joins the draw and opens its vectors to the release's booking:
// the plan's Bindings.InputVecs.
func (d *noiseDraw) vectors() [][]int64 { return d.join().Vectors(d.booking) }

// sensitivities are a release's L2/L1 bounds, as meter takes them.
type sensitivities struct{ delta2, delta1 float64 }

func sens(delta2, delta1 float64) sensitivities { return sensitivities{delta2, delta1} }

// evaluate runs the aggregate on the engine Params selects, with its
// noise of dims entries. bound is the static bound on the noiseless
// aggregate: it is checked with the noise tail against the field's signed
// range before the engine is looked at, so every engine refuses the same
// Params. The ledger is charged between the two, at s, and only then is
// the noise drawn, under the booking that charge returns: refused
// parameters cost nothing and move no client's stream, and once an engine
// starts the release is booked whether or not the session completes — a
// session cut in its opening round has shown up to P−1 parties the
// output.
//
// plain returns the noiseless aggregate, and every client's share is
// drawn onto it in place, on the caller's goroutine: the plaintext
// engine's one noise holder is the aggregate itself, which spares a
// covariance a second n(n+1)/2 triangle — about 25 MB at the paper's
// n = 2 500, 1.69 GB at the Gene shape's n = 20 531. mpc receives the
// draw already started beside it on fresh holder vectors that open to
// the booking (noiseDraw.vectors), and the draw is joined on every path.
func (r *release) evaluate(bound float64, s sensitivities, dims int, plain func() ([]int64, error), mpc func(*noiseDraw) ([]int64, error)) ([]int64, error) {
	if err := checkFieldBound(bound + noiseMargin(r.p.Mu)); err != nil {
		return nil, err
	}
	b := r.p.meter(s.delta2, s.delta1)
	switch {
	case r.p.Engine == EnginePlain:
		out, err := plain()
		if err != nil {
			return nil, err
		}
		d := r.startNoise(dp.NoiseOnto(b, out), dims)
		d.run()
		d.join()
		return out, nil
	case r.p.Engine.IsMPC():
		d := r.drawNoise(dims)
		defer d.join()
		d.booking = b
		return mpc(d)
	}
	return nil, errUnknownEngine(r.p.Engine)
}

// inputColumns records every column of data as an input vector dealt by
// the party hosting the column's client, in a partition of total columns
// (the LR label column is one more than data holds). The builder keeps
// the columns as they lie in data's one array: none is copied.
func (p *Params) inputColumns(b *circuit.Builder, data *quantized, total int) []bgw.Vec {
	cols := make([]bgw.Vec, data.cols)
	for j := range cols {
		cols[j] = b.InputVec(p.partyOf(p.clientOf(j, total)), data.col(j))
	}
	return cols
}

// inputNoise records party h's noise vector of n entries — the sum of
// the shares its clients draw (drawNoise) — as a vector parameter of h,
// added onto acc (nil starts the chain); the plan's Bindings.InputVecs is
// the draw's vectors, with the holders declared in order. The chain reaches
// nothing but the release's opening, so no party shares its vector: each
// adds it to the row it publishes, under the opening's zero mask
// (PRIVACY.md "Add what only you know at the opening"), and Execute
// enters it after the last multiplicative level, which the draw overlaps.
// The noise costs no frame and no round, and the opened integers are the
// same as if every client's vector had been shared. Compile computes the
// chain — the holders' vectors and what they are added to — as one plain
// LinComb (circuit.Builder.AddVec), so every party fills one output slot
// for it, not one per holder.
func (p *Params) inputNoise(b *circuit.Builder, acc bgw.Vec, h, n int) bgw.Vec {
	v := b.InputVecParam(h, n)
	if acc == nil {
		return v
	}
	return b.AddVec(acc, v)
}

// execute runs a plan on eng and returns its result with the engine's
// counters as the run left them. Stats comes before Err: it is the
// barrier that latches a party's failure, and it issues an input round
// that nothing in the plan followed (a set-up plan only deals).
func execute(eng bgw.Evaluator, plan *circuit.Plan, bind circuit.Bindings) (*circuit.Result, bgw.Stats, error) {
	res, err := plan.Execute(eng, bind)
	if err != nil {
		return nil, bgw.Stats{}, err
	}
	stats := eng.Stats()
	if err := eng.Err(); err != nil {
		return nil, bgw.Stats{}, err
	}
	return res, stats, nil
}

// runOnce compiles what b recorded and executes it with bind on a fresh
// engine of the selected kind, whose counters become the Trace's.
func (r *release) runOnce(b *circuit.Builder, seedXor uint64, bind circuit.Bindings) (*circuit.Result, error) {
	plan, err := b.Compile()
	if err != nil {
		return nil, err
	}
	eng, err := r.p.newEvaluator(seedXor)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res, stats, err := execute(eng, plan, bind)
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
// streams for one invocation: each a Fork of the root, in that order,
// all seeded in place in one array (RNG.Seed of the root's next draw is
// what Fork returns), so the clients cost no allocation apiece.
func rngFamily(seed uint64, clients int) (pub *randx.RNG, clientRNGs []*randx.RNG) {
	streams := make([]randx.RNG, 2+clients)
	root, pub := &streams[0], &streams[1]
	root.Seed(seed)
	pub.Seed(root.Uint64())
	clientRNGs = make([]*randx.RNG, clients)
	for j := range clientRNGs {
		clientRNGs[j] = &streams[2+j]
		clientRNGs[j].Seed(root.Uint64())
	}
	return pub, clientRNGs
}

// quantized is the clients' quantized data, column-major in one array:
// col(j) is column j's rows integers, the slice the party hosting the
// column's client deals and the builder keeps (inputColumns), and the
// plain engine reads.
type quantized struct {
	rows, cols int
	data       []int64
}

// col returns column j, a view of the one array.
func (q *quantized) col(j int) []int64 {
	return q.data[j*q.rows : (j+1)*q.rows : (j+1)*q.rows]
}

// maxAbs returns the largest |x̂| of the data.
func (q *quantized) maxAbs() int64 {
	var s int64
	for _, v := range q.data {
		s = max(s, v, -v)
	}
	return s
}

// quantizeByClient runs Algorithm 2 on every column using the owning
// client's private randomness. The clients are split across the cores
// (chunk.Run); a client's columns are rounded from its own stream in
// column order, rows in order, so the integers and every stream's state
// afterwards are the same whatever the core count.
func quantizeByClient(x *linalg.Matrix, p *Params, clientRNGs []*randx.RNG) *quantized {
	out := &quantized{rows: x.Rows, cols: x.Cols, data: make([]int64, x.Rows*x.Cols)}
	chunk.Run(len(clientRNGs), runtime.GOMAXPROCS(0), func(lo, hi int) {
		for j := 0; j < x.Cols; j++ {
			c := p.clientOf(j, x.Cols)
			if c < lo || c >= hi {
				continue
			}
			g := clientRNGs[c]
			col := out.col(j)
			for i := range col {
				col[i] = g.StochasticRound(p.Gamma * x.At(i, j))
			}
		}
	})
	return out
}
