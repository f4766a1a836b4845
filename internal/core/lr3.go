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

	feat *quant.IntMatrix
	lab  []int64

	mpc *lrShares // nil for EnginePlain
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
	lr.feat = quantizeByClient(features, p, lr.clientRNGs)

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
		var err error
		if lr.mpc, err = shareColumns(&lr.p, lr.feat, lr.lab, 0x3c91); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// Close releases the MPC backend; no-op for the plain engine.
func (lr *LR3Protocol) Close() error {
	if lr.mpc != nil {
		return lr.mpc.eng.Close()
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
	if err := checkBatch(batch, lr.m); err != nil {
		return nil, nil, err
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

// mpcGradient runs one order-3 round over secret shares:
// u = qHalf + Σ_j ŵ_j·X_B[:,j] − k³γ³·y_B − c³ with c = Σ_j ŵc_j·X_B[:,j].
// The linear parts are two affine vector gates; the cube costs two
// multiplication levels on the B entries of c, taken out as scalars. The
// circuit records −c, because (−c)³ = −c³ joins u by an addition and the
// gate surface has no vector subtraction. With the inner products that
// is multiplicative depth 3: five wire rounds for any batch.
func (lr *LR3Protocol) mpcGradient(wq, wc []int64, qHalf, labelCoef int64, batch []int, noise [][]int64, tr *Trace) ([]int64, error) {
	linCs := append(append(make([]int64, 0, lr.d+1), wq...), -labelCoef)
	negWc := make([]int64, lr.d)
	for j, v := range wc {
		negWc[j] = -v
	}
	return lr.mpc.gradient(&lr.p, batch, noise, tr, func(b *circuit.Builder, cols []bgw.Vec) bgw.Vec {
		lin := b.LinComb(cols, linCs, qHalf)
		negC := b.LinComb(cols[:lr.d], negWc, 0)
		cubes := make([]bgw.Val, len(batch))
		for i := range cubes {
			ci := b.At(negC, i)
			cubes[i] = b.Mul(b.Mul(ci, ci), ci)
		}
		return b.AddVec(lin, b.FromScalars(cubes))
	})
}
