package core

import (
	"fmt"
	"math"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/quant"
	"sqm/internal/randx"
)

// LRProtocol holds the per-training-run state of the logistic-regression
// instantiation (§V-B). The clients quantize and (for the BGW engines)
// secret-share their feature columns and the label column once; each
// SGD round then evaluates the polynomial gradient
//
//	f(w, (x, y)) = (σ̃(⟨w, x⟩) − y)·x
//
// on a shared-randomness batch with fresh Skellam noise, where σ̃ is the
// Taylor polynomial of the sigmoid the protocol's link fixes: Eq. (9)'s
// ½ + u/4 (NewLRProtocol) or the order-3 ½ + u/4 − u³/48
// (NewLR3Protocol). Because the weight vector is public, folding it in
// is a local linear combination; the only resharings are the cube's two
// multiplication levels at order 3 — the fused inner product per output
// coordinate is opened at the degree it has.
type LRProtocol struct {
	p    Params
	m, d int
	link link

	pub        *randx.RNG
	clientRNGs []*randx.RNG

	feat    *quant.IntMatrix // m × d quantized features
	maxFeat float64          // feat.MaxAbs(), fixed at construction: the order-1 bound reads it every step
	lab     []int64          // γ·y (exact for y ∈ {0,1})

	mpc        *lrShares // MPC engine state; nil for EnginePlain
	setupStats bgw.Stats
}

// LR3Protocol is the protocol at the order-3 link, the "more delicate
// approximation" direction the paper leaves open (§V-C). The gradient
// becomes a degree-4 polynomial of (x, y), so the uniform amplification
// factor is γ^{λ+1} = γ⁵, multiplied by a small precision factor k³: the
// cubic term's coefficients are spread over three factors (each scaled
// by k·(γ/48)^{1/3}), and scaling everything by k³ buys the low-degree
// coefficients extra resolution. The server divides the opened output by
// k³γ⁵.
//
// Because of the γ⁵ amplification, the 61-bit field caps γ around 2⁹
// for unit-norm records (checked at run time) — the ablation harness
// compares this against order 1 at equal budgets.
type LR3Protocol = LRProtocol

// DefaultLR3Precision is the default k.
const DefaultLR3Precision = 8

// link is the Taylor order of the sigmoid as a value: what the order-1
// and order-3 gradient polynomials do not share — the step's public
// coefficients and the order the public coin draws them in, the server's
// scale, the sensitivity and the static bound. k = 0 is order 1; k >= 1
// is order 3 at precision multiplier k.
type link struct {
	gamma float64
	k     int64
}

// coefs are one step's public integers after coefficient pre-processing:
// u_i = half + Σ_j lin_j·x̂_ij − (Σ_j cube_j·x̂_ij)³ − label·ŷ_i per
// record, and the gradient sum is X_Bᵀ·u.
type coefs struct {
	lin   []int64 // ŵ_j of the u/4 term
	cube  []int64 // ŵc_j, the per-factor coefficient of the u³/48 term; nil at order 1
	half  int64   // the quantized ½
	label int64   // the label column's exact coefficient: γ at order 1, k³γ³ at order 3
}

// scale returns the server's divisor: γ³, the γ^{λ+1} of the degree-2
// polynomial, or k³γ⁵.
func (l link) scale() float64 {
	if l.k == 0 {
		return math.Pow(l.gamma, 3)
	}
	return float64(l.k*l.k*l.k) * math.Pow(l.gamma, 5)
}

// coefficients quantizes the round's public coefficients for weights w.
// The draw order is part of the protocol: ŵ then the half at order 1;
// ŵ_j and ŵc_j interleaved, then the half, at order 3.
func (l link) coefficients(pub *randx.RNG, w []float64) coefs {
	g := l.gamma
	c := coefs{lin: make([]int64, len(w))}
	if l.k == 0 {
		for j, wj := range w {
			c.lin[j] = pub.StochasticRound(g * wj / 4)
		}
		c.half = pub.StochasticRound(g * g / 2)
		c.label = int64(g)
		return c
	}
	k3 := float64(l.k * l.k * l.k)
	beta := math.Cbrt(g / 48) // the per-factor cube coefficient scale
	c.cube = make([]int64, len(w))
	for j, wj := range w {
		c.lin[j] = pub.StochasticRound(k3 * g * g * g * wj / 4)
		c.cube[j] = pub.StochasticRound(float64(l.k) * beta * wj)
	}
	c.half = pub.StochasticRound(k3 * g * g * g * g / 2)
	c.label = int64(k3 * g * g * g)
	return c
}

// sensitivity bounds one record's L2/L1 contribution to the scaled
// gradient sum over d features.
func (l link) sensitivity(d int) (delta2, delta1 float64) {
	if l.k == 0 {
		return LRSensitivity(l.gamma, d)
	}
	return LR3Sensitivity(l.gamma, d, l.k)
}

// bound statically bounds the noiseless scaled gradient sum of a batch.
// Order 1 reads the data: |u_i| <= |half| + Σ|ŵ_j|·maxFeat + γ². Order 3
// takes the data-independent sensitivity, once more than the batch holds.
func (l link) bound(c coefs, maxFeat float64, batch int) float64 {
	if l.k != 0 {
		d2, _ := l.sensitivity(len(c.lin))
		return d2 * float64(batch+1)
	}
	var wAbs float64
	for _, v := range c.lin {
		wAbs += math.Abs(float64(v))
	}
	u := math.Abs(float64(c.half)) + wAbs*maxFeat + l.gamma*l.gamma
	return maxFeat * u * float64(batch)
}

// u evaluates one record's u_i on the plain engine.
func (c coefs) u(row []int64, lab int64) int64 {
	var s, cu int64
	for j, xj := range row {
		s += c.lin[j] * xj
	}
	for j, wc := range c.cube {
		cu += wc * row[j]
	}
	return c.half + s - cu*cu*cu - c.label*lab
}

// gate records u over the batch's shared columns (the d feature columns,
// then the label column). The linear part is one affine vector gate. At
// order 3, c is a second one and the cube costs two multiplication
// levels on its B entries, taken out as scalars; the circuit records −c,
// because (−c)³ = −c³ joins u by an addition and the gate surface has no
// vector subtraction. With the inner products that is multiplicative
// depth 3 and, the last level being opened unreduced, three wire rounds
// for any batch: the cube's two resharings and the opening.
func (c coefs) gate(b *circuit.Builder, cols []bgw.Vec) bgw.Vec {
	d := len(c.lin)
	u := b.LinComb(cols, append(append(make([]int64, 0, d+1), c.lin...), -c.label), c.half)
	if c.cube == nil {
		return u
	}
	negWc := make([]int64, d)
	for j, v := range c.cube {
		negWc[j] = -v
	}
	negC := b.LinComb(cols[:d], negWc, 0)
	cubes := make([]bgw.Val, negC.Len())
	for i := range cubes {
		ci := b.At(negC, i)
		cubes[i] = b.Mul(b.Mul(ci, ci), ci)
	}
	return b.AddVec(u, b.FromScalars(cubes))
}

// LRSensitivity returns Lemma 7's L2/L1 sensitivities of the quantized
// order-1 gradient sum over d features:
//
//	Δ₂ = √((¾γ³)² + 9γ⁵·d + 36γ⁴),  Δ₁ = min(Δ₂², √d·Δ₂).
func LRSensitivity(gamma float64, d int) (delta2, delta1 float64) {
	g3 := gamma * gamma * gamma
	delta2 = math.Sqrt(0.75*0.75*g3*g3 + 9*math.Pow(gamma, 5)*float64(d) + 36*math.Pow(gamma, 4))
	delta1 = math.Min(delta2*delta2, math.Sqrt(float64(d))*delta2)
	return delta2, delta1
}

// LR3Sensitivity is the order-3 protocol's sensitivity bound at scale
// gamma, d features and precision k >= 1: the quantized-domain worst
// case over ‖x‖₂ ≤ 1 and y ∈ {0, 1}. It reads no data, so a trainer
// calibrates μ before it builds — and shares the data of — a protocol.
func LR3Sensitivity(gamma float64, d int, precision int64) (delta2, delta1 float64) {
	g, k := gamma, float64(precision)
	beta := math.Cbrt(g / 48)
	sd := math.Sqrt(float64(d))
	k3 := float64(precision * precision * precision)
	xNorm := g + sd // ‖x̂‖₂ ≤ γ‖x‖ + √d
	s2 := (k3*g*g*g/4 + sd) * xNorm
	c := (k*beta + sd) * xNorm
	u := k3*g*g*g*g/2 + 1 + s2 + c*c*c + k3*g*g*g*(g+1)
	delta2 = xNorm * u
	delta1 = math.Min(delta2*delta2, sd*delta2)
	return delta2, delta1
}

// lrShares is the MPC side of the protocol: the engine, the columns its
// parties hold shares of, and the engine's counters as the last step
// left them.
type lrShares struct {
	eng  bgw.Evaluator
	cols []bgw.Vec // the d feature columns, then the label column; m elements each
	// last is the counters after set-up or the previous step, so a step
	// reads them once: every read is a barrier that drains the parties'
	// command pipeline, and nothing else drives this engine in between.
	last bgw.Stats
}

// shareColumns starts an engine and has every column's client share it:
// the one-time data-sharing phase, a single-round plan of its own. The
// column handles persist inside the engine and feed every gradient
// circuit through external bindings.
func shareColumns(p *Params, feat *quant.IntMatrix, lab []int64, seedXor uint64) (*lrShares, error) {
	d := feat.Cols
	sb := circuit.NewBuilder(p.Parties, p.Threshold).SetRecorder(p.Recorder)
	hs := append(p.inputColumns(sb, feat, d+1), sb.InputVec(p.partyOf(p.clientOf(d, d+1)), lab))
	plan, err := sb.Compile()
	if err != nil {
		return nil, err
	}
	eng, err := p.newEvaluator(seedXor)
	if err != nil {
		return nil, err
	}
	res, stats, err := execute(eng, plan, circuit.Bindings{})
	if err != nil {
		eng.Close()
		return nil, err
	}
	cols := make([]bgw.Vec, d+1)
	for j, h := range hs {
		cols[j] = res.VecOf(h)
	}
	return &lrShares{eng: eng, cols: cols, last: stats}, nil
}

// NewLRProtocol quantizes and (for the BGW engines) shares the training
// data for the order-1 gradient of Eq. (9). Labels must be 0/1; features
// are the first d columns and the label is the (d+1)-th column of the
// vertical partition, so p.NumClients defaults to d+1 as in the paper's
// experiments.
func NewLRProtocol(features *linalg.Matrix, labels []float64, p Params) (*LRProtocol, error) {
	return newLRProtocol(features, labels, p, 0, 0x17a3)
}

// NewLR3Protocol is NewLRProtocol for order-3 training. precision is the
// multiplier k (0 means DefaultLR3Precision).
func NewLR3Protocol(features *linalg.Matrix, labels []float64, p Params, precision int64) (*LR3Protocol, error) {
	if precision == 0 {
		precision = DefaultLR3Precision
	}
	if precision < 1 {
		return nil, fmt.Errorf("core: precision must be >= 1, got %d", precision)
	}
	return newLRProtocol(features, labels, p, precision, 0x3c91)
}

// newLRProtocol builds the protocol at link k; shareSeed keeps each
// order's share randomness on the stream it has always used.
func newLRProtocol(features *linalg.Matrix, labels []float64, p Params, k int64, shareSeed uint64) (*LRProtocol, error) {
	if features.Rows != len(labels) {
		return nil, fmt.Errorf("core: %d rows but %d labels", features.Rows, len(labels))
	}
	if err := p.normalize(features.Cols + 1); err != nil {
		return nil, err
	}
	if !mathx.EqualWithin(p.Gamma, math.Trunc(p.Gamma), 0) {
		return nil, fmt.Errorf("core: LR protocol requires an integer gamma, got %v", p.Gamma)
	}
	lr := &LRProtocol{p: p, m: features.Rows, d: features.Cols, link: link{gamma: p.Gamma, k: k}}
	lr.pub, lr.clientRNGs = rngFamily(p.Seed, p.NumClients)
	lr.feat = quantizeByClient(features, &lr.p, lr.clientRNGs)
	lr.maxFeat = float64(lr.feat.MaxAbs())

	g := lr.clientRNGs[p.clientOf(lr.d, lr.d+1)]
	lr.lab = make([]int64, lr.m)
	for i, y := range labels {
		if !mathx.EqualWithin(y, 0, 0) && !mathx.EqualWithin(y, 1, 0) {
			return nil, fmt.Errorf("core: label %v is not 0/1", y)
		}
		lr.lab[i] = g.StochasticRound(p.Gamma * y) // exact: γ·y is integral
	}

	if p.Engine.IsMPC() {
		mpc, err := shareColumns(&lr.p, lr.feat, lr.lab, shareSeed)
		if err != nil {
			return nil, err
		}
		lr.mpc, lr.setupStats = mpc, mpc.last
	}
	return lr, nil
}

// Close releases the MPC backend (party goroutines, sockets); no-op for
// the plain engine. The protocol is unusable afterwards.
func (lr *LRProtocol) Close() error {
	if lr.mpc != nil {
		return lr.mpc.eng.Close()
	}
	return nil
}

// NumRecords returns m.
func (lr *LRProtocol) NumRecords() int { return lr.m }

// Scale returns the server's divisor: γ³ at order 1, k³γ⁵ at order 3.
func (lr *LRProtocol) Scale() float64 { return lr.link.scale() }

// Sensitivity returns the L2/L1 bound on one record's contribution to
// the scaled gradient sum: LRSensitivity at the protocol's (γ, d), or
// the conservative LR3Sensitivity at its (γ, d, k).
func (lr *LRProtocol) Sensitivity() (delta2, delta1 float64) { return lr.link.sensitivity(lr.d) }

// SetupStats returns the protocol counters of the one-time data-sharing
// phase (zero for EnginePlain).
func (lr *LRProtocol) SetupStats() bgw.Stats { return lr.setupStats }

// SampleBatch draws the shared-randomness Poisson batch of one round
// (its membership is known to the clients but not the server).
func (lr *LRProtocol) SampleBatch(q float64) []int {
	return lr.pub.BernoulliSubset(lr.m, q)
}

// GradientSum evaluates Σ_{i∈batch} f(w, (x_i, y_i)) + Sk(μ) per
// coordinate and returns the server's down-scaled estimate.
func (lr *LRProtocol) GradientSum(w []float64, batch []int) ([]float64, *Trace, error) {
	if len(w) != lr.d {
		return nil, nil, fmt.Errorf("core: weight dim %d != %d", len(w), lr.d)
	}
	if err := checkBatch(batch, lr.m); err != nil {
		return nil, nil, err
	}
	r := lr.p.begin(lr.clientRNGs)
	co := lr.link.coefficients(lr.pub, w)
	noise := r.sampleNoise(lr.d)
	scaled, err := r.evaluate(lr.link.bound(co, lr.maxFeat, len(batch)), nil,
		func() ([]int64, error) {
			// grad_t = Σ_{i∈batch} x̂_it·u_i.
			grad := make([]int64, lr.d)
			for _, i := range batch {
				row := lr.feat.Row(i)
				u := co.u(row, lr.lab[i])
				for t, xt := range row {
					grad[t] += xt * u
				}
			}
			r.addNoise(grad, noise)
			return grad, nil
		},
		func() ([]int64, error) { return lr.mpc.gradient(r, batch, noise, co.gate) })
	if err != nil {
		return nil, nil, err
	}
	tr := r.finish(scaled, lr.link.scale())
	return tr.estimate(), tr, nil
}

// checkBatch rejects a record index outside [0, m): the batch is caller
// input, and every engine refuses it the same way.
func checkBatch(batch []int, m int) error {
	for _, i := range batch {
		if i < 0 || i >= m {
			return fmt.Errorf("core: batch index %d out of range [0,%d)", i, m)
		}
	}
	return nil
}

// gradient evaluates X_Bᵀ·u + noise for the batch B on the resident
// shares and opens it: the batch's rows of every column are gathered on
// the engine and bound to the step's circuit as its external vectors.
// The wire rounds are one resharing round per multiplicative level of u
// and the opening: the inner products are opened unreduced, and the noise
// is an input no party shares (inputNoise), so a step has no input round.
func (s *lrShares) gradient(r *release, batch []int, noise [][]int64, u uGate) ([]int64, error) {
	ext := make([]bgw.Vec, len(s.cols))
	for j, col := range s.cols {
		ext[j] = s.eng.Gather(col, batch)
	}
	plan, outIdx, err := recordGradient(r.p, len(s.cols)-1, len(batch), noise, u)
	if err != nil {
		return nil, err
	}
	res, after, err := execute(s.eng, plan, circuit.Bindings{ExtVecs: ext})
	if err != nil {
		return nil, err
	}
	r.tr.Stats = bgw.Stats{
		Rounds:   after.Rounds - s.last.Rounds,
		Frames:   after.Frames - s.last.Frames,
		Messages: after.Messages - s.last.Messages,
		Bytes:    after.Bytes - s.last.Bytes,
		FieldOps: after.FieldOps - s.last.FieldOps,
	}
	s.last = after
	return res.OpenedVec(outIdx), nil
}

// uGate records a gradient circuit's vector u from the batch's columns:
// the d feature columns, then the label column.
type uGate func(b *circuit.Builder, cols []bgw.Vec) bgw.Vec

// recordGradient records and compiles one step's circuit over d+1
// external vectors of B elements: dots[t] = ⟨cols[t], u⟩, and every
// client's noise share vector an input its party holds (inputNoise),
// added to the packed dots and opened. That is 2d + 2·parties nodes or
// so after folding, recorded every step: the vector lengths are the
// realised Poisson batch size, which rarely repeats, so there is nothing
// to cache.
func recordGradient(p *Params, d, B int, noise [][]int64, u uGate) (plan *circuit.Plan, outIdx int, err error) {
	b := circuit.NewBuilder(p.Parties, p.Threshold).SetRecorder(p.Recorder)
	cols := make([]bgw.Vec, d+1)
	for j := range cols {
		cols[j] = b.ExtVec(B)
	}
	uv := u(b, cols)
	dots := make([]bgw.Val, d)
	for t := range dots {
		dots[t] = b.Dot(cols[t], uv)
	}
	sum := b.FromScalars(dots)
	for j, shares := range noise {
		sum = p.inputNoise(b, sum, j, shares)
	}
	outIdx = b.OpenVecIdx(sum)
	plan, err = b.Compile()
	return plan, outIdx, err
}
