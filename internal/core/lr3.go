package core

import (
	"fmt"
	"math"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/randx"
)

// LR3Protocol extends the logistic-regression instantiation to the
// order-3 Taylor approximation of the sigmoid,
//
//	σ(u) ≈ ½ + u/4 − u³/48,
//
// the "more delicate approximation" direction the paper leaves open
// (§V-C). The gradient becomes a degree-4 polynomial of (x, y), so the
// uniform amplification factor is γ^{λ+1} = γ⁵, multiplied by a small
// precision factor k³: the cubic term's coefficients are spread over
// three factors (each scaled by k·(γ/48)^{1/3}), and scaling everything
// by k³ buys the low-degree coefficients extra resolution. The server
// divides the opened output by k³γ⁵.
//
// Because of the γ⁵ amplification, the 61-bit field caps γ around 2⁹
// for unit-norm records (checked at run time) — the ablation harness
// compares this against order 1 at equal budgets.
type LR3Protocol struct {
	p        Params
	m, d     int
	k        int64   // precision multiplier (k³ overall)
	beta     float64 // (γ/48)^{1/3}, the per-factor cube coefficient scale
	gammaInt int64

	pub        *randx.RNG
	clientRNGs []*randx.RNG

	feat *IntMatrixView
	lab  []int64

	eng        bgw.Evaluator
	featShares []bgw.Vec
	labShares  bgw.Vec

	// Compiled gradient plans keyed by batch size (see LRProtocol).
	plans map[int]*lrPlan
}

// IntMatrixView aliases the quantized feature storage to avoid exposing
// internal/quant in this file's signatures.
type IntMatrixView = intMatrix

type intMatrix struct {
	Rows, Cols int
	Data       []int64
}

func (m *intMatrix) Row(i int) []int64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }
func (m *intMatrix) Col(j int) []int64 {
	c := make([]int64, m.Rows)
	for i := range c {
		c[i] = m.Data[i*m.Cols+j]
	}
	return c
}
func (m *intMatrix) MaxAbs() int64 {
	var s int64
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > s {
			s = v
		}
	}
	return s
}

// DefaultLR3Precision is the default k.
const DefaultLR3Precision = 8

// NewLR3Protocol quantizes (and for EngineBGW shares) the data for
// order-3 training. precision is the multiplier k (0 means
// DefaultLR3Precision).
func NewLR3Protocol(features *linalg.Matrix, labels []float64, p Params, precision int64) (*LR3Protocol, error) {
	if features.Rows != len(labels) {
		return nil, fmt.Errorf("core: %d rows but %d labels", features.Rows, len(labels))
	}
	if err := p.normalize(features.Cols + 1); err != nil {
		return nil, err
	}
	if !mathx.EqualWithin(p.Gamma, math.Trunc(p.Gamma), 0) {
		return nil, fmt.Errorf("core: LR3 requires an integer gamma, got %v", p.Gamma)
	}
	if precision == 0 {
		precision = DefaultLR3Precision
	}
	if precision < 1 {
		return nil, fmt.Errorf("core: precision must be >= 1, got %d", precision)
	}
	lr := &LR3Protocol{
		p: p, m: features.Rows, d: features.Cols,
		k: precision, beta: math.Cbrt(p.Gamma / 48), gammaInt: int64(p.Gamma),
	}
	lr.pub, lr.clientRNGs = rngFamily(p.Seed, p.NumClients)
	q := quantizeByClient(features, p, lr.clientRNGs)
	lr.feat = &intMatrix{Rows: q.Rows, Cols: q.Cols, Data: q.Data}

	labelClient := p.clientOf(features.Cols, features.Cols+1)
	g := lr.clientRNGs[labelClient]
	lr.lab = make([]int64, lr.m)
	for i, y := range labels {
		if !mathx.EqualWithin(y, 0, 0) && !mathx.EqualWithin(y, 1, 0) {
			return nil, fmt.Errorf("core: label %v is not 0/1", y)
		}
		lr.lab[i] = g.StochasticRound(p.Gamma * y)
	}
	if p.Engine.IsMPC() {
		eng, err := p.newEvaluator(0x3c91)
		if err != nil {
			return nil, err
		}
		lr.eng = eng
		lr.plans = make(map[int]*lrPlan)
		sb := circuit.NewBuilder(p.Parties, p.Threshold)
		featH := make([]bgw.Vec, lr.d)
		for j := 0; j < lr.d; j++ {
			featH[j] = sb.InputVec(p.partyOf(p.clientOf(j, lr.d+1)), lr.feat.Col(j))
		}
		labH := sb.InputVec(p.partyOf(labelClient), lr.lab)
		setupPlan, err := sb.Compile()
		if err != nil {
			eng.Close()
			return nil, err
		}
		sres, err := setupPlan.Execute(eng, circuit.Bindings{})
		if err != nil {
			eng.Close()
			return nil, err
		}
		lr.featShares = make([]bgw.Vec, lr.d)
		for j := 0; j < lr.d; j++ {
			lr.featShares[j] = sres.VecOf(featH[j])
		}
		lr.labShares = sres.VecOf(labH)
		if err := eng.Err(); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return lr, nil
}

// Close releases the MPC backend; no-op for the plain engine.
func (lr *LR3Protocol) Close() error {
	if lr.eng != nil {
		return lr.eng.Close()
	}
	return nil
}

// Scale returns the server's divisor k³γ⁵.
func (lr *LR3Protocol) Scale() float64 {
	k3 := float64(lr.k * lr.k * lr.k)
	return k3 * math.Pow(lr.p.Gamma, 5)
}

// SampleBatch draws the shared-randomness Poisson batch.
func (lr *LR3Protocol) SampleBatch(q float64) []int {
	return lr.pub.BernoulliSubset(lr.m, q)
}

// coefficients quantizes the round's public coefficients.
func (lr *LR3Protocol) coefficients(w []float64) (wq, wc []int64, qHalf, labelCoef int64) {
	k3 := float64(lr.k * lr.k * lr.k)
	g := lr.p.Gamma
	wq = make([]int64, lr.d)
	wc = make([]int64, lr.d)
	for j, wj := range w {
		wq[j] = lr.pub.StochasticRound(k3 * g * g * g * wj / 4)
		wc[j] = lr.pub.StochasticRound(float64(lr.k) * lr.beta * wj)
	}
	qHalf = lr.pub.StochasticRound(k3 * g * g * g * g / 2)
	labelCoef = int64(k3 * g * g * g)
	return wq, wc, qHalf, labelCoef
}

// Sensitivity returns a conservative L2/L1 bound on one record's
// contribution to the scaled gradient sum: LR3Sensitivity at the
// protocol's (γ, d, k).
func (lr *LR3Protocol) Sensitivity() (delta2, delta1 float64) {
	return LR3Sensitivity(lr.p.Gamma, lr.d, lr.k)
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

// GradientSum evaluates the order-3 gradient sum over the batch with
// Skellam noise and returns the down-scaled estimate.
func (lr *LR3Protocol) GradientSum(w []float64, batch []int) ([]float64, *Trace, error) {
	if len(w) != lr.d {
		return nil, nil, fmt.Errorf("core: weight dim %d != %d", len(w), lr.d)
	}
	start := time.Now()
	wq, wc, qHalf, labelCoef := lr.coefficients(w)

	noiseStart := time.Now()
	noise := sampleNoiseShares(lr.clientRNGs, lr.d, lr.p.Mu)
	noiseSample := time.Since(noiseStart)

	// Static overflow check against the field range.
	d2, _ := lr.Sensitivity()
	if err := checkFieldBound(d2*float64(len(batch)+1) + noiseMargin(lr.p.Mu)); err != nil {
		return nil, nil, err
	}

	tr := &Trace{Scale: lr.Scale(), Lat: lr.p.Latency}
	var scaled []int64
	var err error
	switch {
	case lr.p.Engine == EnginePlain:
		scaled = lr.plainGradient(wq, wc, qHalf, labelCoef, batch, noise, tr)
	case lr.p.Engine.IsMPC():
		scaled, err = lr.mpcGradient(wq, wc, qHalf, labelCoef, batch, noise, tr)
	default:
		err = errUnknownEngine(lr.p.Engine)
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

func (lr *LR3Protocol) plainGradient(wq, wc []int64, qHalf, labelCoef int64, batch []int, noise [][]int64, tr *Trace) []int64 {
	grad := make([]int64, lr.d)
	for _, i := range batch {
		row := lr.feat.Row(i)
		var s2, c int64
		for j, xj := range row {
			s2 += wq[j] * xj
			c += wc[j] * xj
		}
		u := qHalf + s2 - c*c*c - labelCoef*lr.lab[i]
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

// gradientPlan compiles (and caches) the order-3 gradient circuit for
// a batch of B records. The cube c³ gives multiplicative depth 3
// (square, cube, fused inner product), so the plan always runs in five
// wire rounds — input, three batched resharing levels, output —
// independent of B.
func (lr *LR3Protocol) gradientPlan(B int) *lrPlan {
	if pl, ok := lr.plans[B]; ok {
		return pl
	}
	p := lr.p
	b := circuit.NewBuilder(p.Parties, p.Threshold)
	wqP := make([]circuit.ConstID, lr.d)
	wcP := make([]circuit.ConstID, lr.d)
	for j := 0; j < lr.d; j++ {
		wqP[j] = b.ConstParam()
	}
	for j := 0; j < lr.d; j++ {
		wcP[j] = b.ConstParam()
	}
	qHalfP := b.ConstParam()
	// labelCoef = k³γ³ depends only on protocol parameters, so it is a
	// literal rather than a parameter.
	labelCoef := int64(float64(lr.k*lr.k*lr.k) * math.Pow(lr.p.Gamma, 3))

	feats := make([][]bgw.Val, B)
	labs := make([]bgw.Val, B)
	for bi := 0; bi < B; bi++ {
		feats[bi] = make([]bgw.Val, lr.d)
		for j := 0; j < lr.d; j++ {
			feats[bi][j] = b.ExtVal()
		}
		labs[bi] = b.ExtVal()
	}

	noiseShared := make([]bgw.Val, lr.d)
	for t := 0; t < lr.d; t++ {
		acc := b.Zero()
		for j := 0; j < p.NumClients; j++ {
			acc = b.Add(acc, b.InputParam(p.partyOf(j)))
		}
		noiseShared[t] = acc
	}

	// u_i = qHalf + Σ_j ŵ_j x̂_{ij} − c_i³ − k³γ³·ŷ_i with
	// c_i = Σ_j ŵc_j x̂_{ij}; the linear parts fold locally, the cube
	// costs two multiplication levels.
	us := make([]bgw.Val, B)
	for bi := 0; bi < B; bi++ {
		s2 := b.Zero()
		c := b.Zero()
		for j := 0; j < lr.d; j++ {
			s2 = b.Add(s2, b.MulConstP(feats[bi][j], wqP[j]))
			c = b.Add(c, b.MulConstP(feats[bi][j], wcP[j]))
		}
		lin := b.AddConstP(b.Sub(s2, b.MulConst(labs[bi], labelCoef)), qHalfP)
		cube := b.Mul(b.Mul(c, c), c)
		us[bi] = b.Sub(lin, cube)
	}

	outIdx := make([]int, lr.d)
	xs := make([]bgw.Val, B)
	for t := 0; t < lr.d; t++ {
		for bi := 0; bi < B; bi++ {
			xs[bi] = feats[bi][t]
		}
		outIdx[t] = b.OpenIdx(b.Add(b.InnerProduct(xs, us), noiseShared[t]))
	}
	pl := &lrPlan{plan: b.MustCompile(), outIdx: outIdx}
	lr.plans[B] = pl
	return pl
}

func (lr *LR3Protocol) mpcGradient(wq, wc []int64, qHalf, labelCoef int64, batch []int, noise [][]int64, tr *Trace) ([]int64, error) {
	_ = labelCoef // baked into the plan as a protocol-level literal
	eng := lr.eng
	before := eng.Stats()
	pl := lr.gradientPlan(len(batch))

	consts := make([]int64, 0, 2*lr.d+1)
	consts = append(consts, wq...)
	consts = append(consts, wc...)
	consts = append(consts, qHalf)

	ext := make([]bgw.Val, 0, len(batch)*(lr.d+1))
	for _, i := range batch {
		for j := 0; j < lr.d; j++ {
			ext = append(ext, eng.At(lr.featShares[j], i))
		}
		ext = append(ext, eng.At(lr.labShares, i))
	}

	noiseStart := time.Now()
	inputs := make([]int64, 0, lr.d*len(noise))
	for t := 0; t < lr.d; t++ {
		for _, shares := range noise {
			inputs = append(inputs, shares[t])
		}
	}
	tr.NoiseCompute += time.Since(noiseStart)
	tr.NoiseRounds++

	res, err := pl.plan.Execute(eng, circuit.Bindings{Consts: consts, Inputs: inputs, Ext: ext})
	if err != nil {
		return nil, err
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}

	scaled := make([]int64, lr.d)
	for t := range scaled {
		scaled[t] = res.Opened(pl.outIdx[t])
	}
	after := eng.Stats()
	tr.Stats = bgw.Stats{
		Rounds:   after.Rounds - before.Rounds,
		Frames:   after.Frames - before.Frames,
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
		FieldOps: after.FieldOps - before.FieldOps,
	}
	return scaled, nil
}
