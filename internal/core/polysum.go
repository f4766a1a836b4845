package core

import (
	"fmt"
	"math"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/invariant"
	"sqm/internal/linalg"
	"sqm/internal/poly"
	"sqm/internal/quant"
)

// EvaluatePolynomialSum runs Algorithm 3: it estimates
// Σ_{x∈X} f(x) for a d-dimensional polynomial f over the vertically
// partitioned rows of X, under distributed DP with aggregate Skellam
// parameter p.Mu. The returned Trace carries the raw scaled output and
// the protocol cost counters.
func EvaluatePolynomialSum(f *poly.Multi, x *linalg.Matrix, p Params) ([]float64, *Trace, error) {
	if f.NumVars() != x.Cols {
		return nil, nil, fmt.Errorf("core: polynomial has %d vars but data has %d columns", f.NumVars(), x.Cols)
	}
	if err := p.normalize(x.Cols); err != nil {
		return nil, nil, err
	}
	pub, clientRNGs := rngFamily(p.Seed, p.NumClients)
	r := p.begin(clientRNGs)
	q, err := f.Quantize(p.Gamma, pub)
	if err != nil {
		return nil, nil, err
	}
	// Lemma 4's generic sensitivity for unit-norm records. Tighter
	// application-level bounds account at their own layer with Acct left
	// nil here.
	return r.polySum(q, x, q.Scale(), sens(q.SensitivityBound(1)))
}

// EvaluateMonomialSum runs Algorithm 1 for a single one-dimensional
// monomial (whose coefficient the server applies in post-processing, as
// the paper assumes coefficient 1 inside the protocol). The quantized
// aggregate is down-scaled by γ^λ.
func EvaluateMonomialSum(m poly.Monomial, x *linalg.Matrix, p Params) (float64, *Trace, error) {
	if len(m.Exps) != x.Cols {
		return 0, nil, fmt.Errorf("core: monomial has %d vars but data has %d columns", len(m.Exps), x.Cols)
	}
	lambda := m.Degree()
	if lambda < 1 {
		return 0, nil, fmt.Errorf("core: Algorithm 1 needs degree >= 1, got %d", lambda)
	}
	if err := p.normalize(x.Cols); err != nil {
		return 0, nil, err
	}
	_, clientRNGs := rngFamily(p.Seed, p.NumClients)
	r := p.begin(clientRNGs)
	// A single degree-λ monomial with unit coefficient bounds one
	// quantized record by (γ+1)^λ (Lemma 4 with d = 1, so Δ₁ = Δ₂).
	d2 := math.Pow(p.Gamma+1, float64(lambda))

	// Algorithm 3 with an identity coefficient: no degree gap to fill, so
	// the scale is γ^λ, not γ^{λ+1}.
	unit := poly.MustMulti(poly.MustPolynomial(x.Cols, poly.Monomial{Coef: 1, Exps: m.Exps}))
	q := &poly.Quantized{Source: unit, Gamma: 1, Lambda: 0, Coefs: [][]int64{{1}}}
	_, tr, err := r.polySum(q, x, math.Pow(p.Gamma, float64(lambda)), sens(d2, d2))
	if err != nil {
		return 0, nil, err
	}
	return m.Coef * float64(tr.Scaled[0]) / tr.Scale, tr, nil
}

// polySum is Algorithm 3 from the quantized coefficients on: the clients
// quantize their columns and draw their noise shares, the selected
// engine evaluates Σ_x q(x̂) plus the noise, and the server divides by
// scale. s is what evaluate books.
func (r *release) polySum(q *poly.Quantized, x *linalg.Matrix, scale float64, s *sensitivities) ([]float64, *Trace, error) {
	qd := quantizeByClient(x, r.p, r.rngs)
	noise := r.sampleNoise(q.Source.OutDim())
	scaled, err := r.evaluate(polyBound(q, qd), s,
		func() ([]int64, error) {
			sum, err := q.EvalIntSum(qd)
			if err == nil {
				r.addNoise(sum, noise)
			}
			return sum, err
		},
		func() ([]int64, error) { return r.mpcPolySum(q, qd, noise) })
	if err != nil {
		return nil, nil, err
	}
	tr := r.finish(scaled, scale)
	return tr.estimate(), tr, nil
}

// mpcPolySum evaluates the quantized polynomial over secret shares with
// whichever Evaluator backend p.Engine selects. The circuit is recorded
// into a level-scheduled plan: the columns some monomial multiplies share
// in one input round, every multiplication level but the last runs as one
// batched degree-reduction round, and the outputs open in one batched
// round — rounds derive from the compiled depth, not hand bookkeeping.
// The noise, and a column only degree-1 monomials read, reach nothing but
// the opening and are added there unshared: a purely linear release is
// one masked-sum round.
func (r *release) mpcPolySum(q *poly.Quantized, data *quant.IntMatrix, noise [][]int64) ([]int64, error) {
	p := r.p
	n, m := data.Cols, data.Rows
	b := circuit.NewBuilder(p.Parties, p.Threshold)
	cols := p.inputColumns(b, data, n)
	// Per-client noise shares are scalar inputs, one chain per output
	// dimension.
	noiseStart := time.Now()
	d := q.Source.OutDim()
	noiseShared := make([]bgw.Val, d)
	for t := 0; t < d; t++ {
		acc := b.Zero()
		for j, shares := range noise {
			acc = b.Add(acc, b.Input(p.partyOf(j), shares[t]))
		}
		noiseShared[t] = acc
	}
	r.noiseTime(noiseStart)

	// Pre-compute column sums (local) for degree-1 monomials.
	var colSum []bgw.Val
	lazyColSum := func(j int) bgw.Val {
		if colSum == nil {
			colSum = make([]bgw.Val, n)
		}
		if colSum[j] == nil {
			acc := b.Zero()
			for i := 0; i < m; i++ {
				acc = b.Add(acc, b.At(cols[j], i))
			}
			colSum[j] = acc
		}
		return colSum[j]
	}

	outIdx := make([]int, d)
	for t, pol := range q.Source.Dims {
		acc := b.Zero()
		for l, mono := range pol.Monomials {
			coef := q.Coefs[t][l]
			switch deg := mono.Degree(); {
			case deg == 0:
				acc = b.AddConst(acc, coef*int64(m))
			case deg == 1:
				j := singleVar(mono.Exps)
				acc = b.Add(acc, b.MulConst(lazyColSum(j), coef))
			case deg == 2:
				a, c := twoVars(mono.Exps)
				acc = b.Add(acc, b.MulConst(b.Dot(cols[a], cols[c]), coef))
			default:
				// General chain: per record, multiply the factors one
				// level at a time; the scheduler batches every record's
				// k-th multiplication into one round.
				sum := b.Zero()
				for i := 0; i < m; i++ {
					var prod bgw.Val
					for j, e := range mono.Exps {
						for k := 0; k < e; k++ {
							if prod == nil {
								prod = b.At(cols[j], i)
							} else {
								prod = b.Mul(prod, b.At(cols[j], i))
							}
						}
					}
					sum = b.Add(sum, prod)
				}
				acc = b.Add(acc, b.MulConst(sum, coef))
			}
		}
		outIdx[t] = b.OpenIdx(b.Add(acc, noiseShared[t]))
	}
	res, err := r.runOnce(b, 0xb6d5)
	if err != nil {
		return nil, err
	}
	scaled := make([]int64, d)
	for t := range scaled {
		scaled[t] = res.Opened(outIdx[t])
	}
	return scaled, nil
}

// polyBound statically bounds the noiseless aggregate from the
// per-record monomial bounds.
func polyBound(q *poly.Quantized, data *quant.IntMatrix) float64 {
	maxAbs := float64(data.MaxAbs())
	var worst float64
	for t, pol := range q.Source.Dims {
		var bt float64
		for l, mono := range pol.Monomials {
			bt += math.Abs(float64(q.Coefs[t][l])) * math.Pow(maxAbs, float64(mono.Degree()))
		}
		if bt > worst {
			worst = bt
		}
	}
	return worst * float64(data.Rows)
}

func singleVar(exps []int) int {
	for j, e := range exps {
		if e == 1 {
			return j
		}
	}
	panic(invariant.Violation("core: not a degree-1 monomial"))
}

// twoVars returns the (possibly equal) variable pair of a degree-2
// monomial.
func twoVars(exps []int) (int, int) {
	first := -1
	for j, e := range exps {
		switch e {
		case 1:
			if first < 0 {
				first = j
			} else {
				return first, j
			}
		case 2:
			return j, j
		}
	}
	panic(invariant.Violation("core: not a degree-2 monomial"))
}
