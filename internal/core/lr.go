package core

import (
	"fmt"
	"math"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/quant"
	"sqm/internal/randx"
)

// LRProtocol holds the per-training-run state of the logistic-regression
// instantiation (§V-B). The clients quantize and (for the BGW engine)
// secret-share their feature columns and the label column once; each
// SGD round then evaluates the degree-2 polynomial gradient of Eq. (9)
//
//	f(w, (x, y)) = ½·x + ⟨w/4, x⟩·x − y·x
//
// on a shared-randomness batch with fresh Skellam noise. Because the
// weight vector is public, folding it in is a local linear combination;
// only one fused inner product per output coordinate needs a resharing.
type LRProtocol struct {
	p        Params
	m, d     int
	gammaInt int64 // γ as an exact integer (the coefficient of −y·x after pre-processing)

	pub        *randx.RNG
	clientRNGs []*randx.RNG

	// Plain engine state.
	feat    *quant.IntMatrix // m × d quantized features
	maxFeat float64          // feat.MaxAbs(), fixed at construction: checkBound reads it every step
	lab     []int64          // γ·y (exact for y ∈ {0,1})

	mpc        *lrShares // MPC engine state; nil for EnginePlain
	setupStats bgw.Stats
}

// lrShares is the MPC side of both logistic-regression protocols: the
// engine, the columns its parties hold shares of, and the engine's
// counters as the last step left them.
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
	eng, err := p.newEvaluator(seedXor)
	if err != nil {
		return nil, err
	}
	d := feat.Cols
	sb := circuit.NewBuilder(p.Parties, p.Threshold).SetRecorder(p.Recorder)
	hs := make([]bgw.Vec, d+1)
	for j := 0; j < d; j++ {
		hs[j] = sb.InputVec(p.partyOf(p.clientOf(j, d+1)), feat.Col(j))
	}
	hs[d] = sb.InputVec(p.partyOf(p.clientOf(d, d+1)), lab)
	plan, err := sb.Compile()
	var res *circuit.Result
	if err == nil {
		res, err = plan.Execute(eng, circuit.Bindings{})
	}
	if err == nil {
		err = eng.Err()
	}
	if err != nil {
		eng.Close()
		return nil, err
	}
	cols := make([]bgw.Vec, d+1)
	for j, h := range hs {
		cols[j] = res.VecOf(h)
	}
	return &lrShares{eng: eng, cols: cols, last: eng.Stats()}, nil
}

// NewLRProtocol quantizes and (for EngineBGW) shares the training data.
// Labels must be 0/1; features are the first d columns and the label is
// the (d+1)-th column of the vertical partition, so p.NumClients
// defaults to d+1 as in the paper's experiments.
func NewLRProtocol(features *linalg.Matrix, labels []float64, p Params) (*LRProtocol, error) {
	if features.Rows != len(labels) {
		return nil, fmt.Errorf("core: %d rows but %d labels", features.Rows, len(labels))
	}
	if err := p.normalize(features.Cols + 1); err != nil {
		return nil, err
	}
	if !mathx.EqualWithin(p.Gamma, math.Trunc(p.Gamma), 0) {
		return nil, fmt.Errorf("core: LR protocol requires an integer gamma, got %v", p.Gamma)
	}
	lr := &LRProtocol{p: p, m: features.Rows, d: features.Cols, gammaInt: int64(p.Gamma)}
	lr.pub, lr.clientRNGs = rngFamily(p.Seed, p.NumClients)
	lr.feat = quantizeByClient(features, p, lr.clientRNGs)
	lr.maxFeat = float64(lr.feat.MaxAbs())

	labelClient := p.clientOf(features.Cols, features.Cols+1)
	g := lr.clientRNGs[labelClient]
	lr.lab = make([]int64, lr.m)
	for i, y := range labels {
		if !mathx.EqualWithin(y, 0, 0) && !mathx.EqualWithin(y, 1, 0) {
			return nil, fmt.Errorf("core: label %v is not 0/1", y)
		}
		lr.lab[i] = g.StochasticRound(p.Gamma * y) // exact: γ·y is integral
	}

	if p.Engine.IsMPC() {
		mpc, err := shareColumns(&lr.p, lr.feat, lr.lab, 0x17a3)
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

// SampleBatch draws the shared-randomness Poisson batch of one round
// (its membership is known to the clients but not the server).
func (lr *LRProtocol) SampleBatch(q float64) []int {
	return lr.pub.BernoulliSubset(lr.m, q)
}

// GradientSum evaluates Σ_{i∈batch} f(w, (x_i, y_i)) + Sk(μ) per
// coordinate and returns the server's down-scaled estimate (divide by
// γ³, the γ^{λ+1} of the degree-2 polynomial).
func (lr *LRProtocol) GradientSum(w []float64, batch []int) ([]float64, *Trace, error) {
	if len(w) != lr.d {
		return nil, nil, fmt.Errorf("core: weight dim %d != %d", len(w), lr.d)
	}
	if err := checkBatch(batch, lr.m); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	p := lr.p
	// Coefficient pre-processing (public): ŵ_j = round(γ·w_j/4) for the
	// degree-2 monomials, qHalf = round(γ²·½) for the degree-1 term.
	wq := make([]int64, lr.d)
	for j, wj := range w {
		wq[j] = lr.pub.StochasticRound(p.Gamma * wj / 4)
	}
	qHalf := lr.pub.StochasticRound(p.Gamma * p.Gamma / 2)

	noiseStart := time.Now()
	noise := sampleNoiseShares(lr.clientRNGs, lr.d, p.Mu)
	noiseSample := time.Since(noiseStart)

	if err := lr.checkBound(wq, qHalf, len(batch)); err != nil {
		return nil, nil, err
	}

	tr := &Trace{Scale: math.Pow(p.Gamma, 3), Lat: p.Latency}
	var scaled []int64
	var err error
	switch {
	case p.Engine == EnginePlain:
		scaled = lr.plainGradient(wq, qHalf, batch, noise, tr)
	case p.Engine.IsMPC():
		scaled, err = lr.mpcGradient(wq, qHalf, batch, noise, tr)
	default:
		err = errUnknownEngine(p.Engine)
	}
	if err != nil {
		return nil, nil, err
	}
	tr.Scaled = scaled
	tr.NoiseCompute += noiseSample
	tr.Compute = time.Since(start)
	est := make([]float64, lr.d)
	for t, v := range scaled {
		est[t] = float64(v) / tr.Scale
	}
	return est, tr, nil
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

// checkBound statically verifies that the scaled gradient sum plus the
// noise tail fits the signed field range.
func (lr *LRProtocol) checkBound(wq []int64, qHalf int64, batch int) error {
	maxFeat := lr.maxFeat
	var wAbs float64
	for _, v := range wq {
		wAbs += math.Abs(float64(v))
	}
	// |u_i| <= qHalf + Σ|ŵ_j|·maxFeat + γ².
	u := math.Abs(float64(qHalf)) + wAbs*maxFeat + lr.p.Gamma*lr.p.Gamma
	bound := maxFeat*u*float64(batch) + noiseMargin(lr.p.Mu)
	return checkFieldBound(bound)
}

// plainGradient: grad_t = Σ_{i∈batch} x̂_{it}·(qHalf + Σ_j ŵ_j x̂_{ij} − γ·ŷ_i).
func (lr *LRProtocol) plainGradient(wq []int64, qHalf int64, batch []int, noise [][]int64, tr *Trace) []int64 {
	grad := make([]int64, lr.d)
	for _, i := range batch {
		row := lr.feat.Row(i)
		var s int64
		for j, xj := range row {
			s += wq[j] * xj
		}
		u := qHalf + s - lr.gammaInt*lr.lab[i]
		for t, xt := range row {
			grad[t] += xt * u
		}
	}
	noiseStart := time.Now()
	for _, shares := range noise {
		for t, z := range shares {
			grad[t] += z
		}
	}
	tr.NoiseCompute += time.Since(noiseStart)
	return grad
}

// mpcGradient runs one SGD round over secret shares. The data is
// vertically partitioned, so the gradient sum is X_Bᵀ·u with
// u = qHalf + Σ_j ŵ_j·X_B[:,j] − γ·y_B: the public weights fold in as one
// affine vector gate and each coordinate is one fused inner product.
func (lr *LRProtocol) mpcGradient(wq []int64, qHalf int64, batch []int, noise [][]int64, tr *Trace) ([]int64, error) {
	cs := append(append(make([]int64, 0, lr.d+1), wq...), -lr.gammaInt)
	return lr.mpc.gradient(&lr.p, batch, noise, tr, func(b *circuit.Builder, cols []bgw.Vec) bgw.Vec {
		return b.LinComb(cols, cs, qHalf)
	})
}

// gradient evaluates X_Bᵀ·u + noise for the batch B on the resident
// shares and opens it: the batch's rows of every column are gathered on
// the engine and bound to the step's circuit as its external vectors.
// The wire rounds are the input round, one resharing round per
// multiplicative level of u plus the inner products', and the opening.
func (s *lrShares) gradient(p *Params, batch []int, noise [][]int64, tr *Trace, u uGate) ([]int64, error) {
	eng := s.eng
	ext := make([]bgw.Vec, len(s.cols))
	for j, col := range s.cols {
		ext[j] = eng.Gather(col, batch)
	}
	plan, outIdx, err := recordGradient(p, len(s.cols)-1, len(batch), noise, u)
	if err != nil {
		return nil, err
	}
	tr.NoiseRounds++
	res, err := plan.Execute(eng, circuit.Bindings{ExtVecs: ext})
	if err != nil {
		return nil, err
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	after := eng.Stats()
	tr.Stats = bgw.Stats{
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
// client's noise share vector an input its party deals — Compile folds
// the vectors one party deals into one sharing of their sum — added to
// the packed dots and opened. That is 2d + 2·parties nodes or so after
// folding, recorded every step: the vector lengths are the realised
// Poisson batch size, which rarely repeats, so there is nothing to cache.
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
		sum = b.AddVec(sum, b.InputVec(p.partyOf(j), shares))
	}
	outIdx = b.OpenVecIdx(sum)
	plan, err = b.Compile()
	return plan, outIdx, err
}

// SetupStats returns the protocol counters of the one-time data-sharing
// phase (EngineBGW only; zero otherwise).
func (lr *LRProtocol) SetupStats() bgw.Stats { return lr.setupStats }
