package core

import (
	"fmt"
	"math"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/invariant"
	"sqm/internal/linalg"
	"sqm/internal/poly"
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
// quantize their columns and draw their noise shares onto their noise
// holders' vectors, the selected engine evaluates Σ_x q(x̂) plus the
// noise, and the server divides by scale. s is what evaluate books.
func (r *release) polySum(q *poly.Quantized, x *linalg.Matrix, scale float64, s sensitivities) ([]float64, *Trace, error) {
	qd := quantizeByClient(x, r.p, r.rngs)
	scaled, err := r.evaluate(polyBound(q, qd), s, q.Source.OutDim(),
		func() ([]int64, error) { return q.EvalIntSum(qd.rows, qd.col) },
		func(noise *noiseDraw) ([]int64, error) { return r.mpcPolySum(q, qd, noise) })
	if err != nil {
		return nil, nil, err
	}
	tr := r.finish(scaled, scale)
	return tr.estimate(), tr, nil
}

// mpcPolySum evaluates the quantized polynomial over secret shares with
// whichever Evaluator backend p.Engine selects, recorded on vectors into
// a level-scheduled plan. A monomial of degree k ≥ 2 is k − 2 Hadamard
// products of its factor columns and a terminal Dot — one gate per
// multiplication level, whatever the number of records — and the
// scheduler batches every monomial's j-th level into one round, which
// reshares only where the next factor would take a product above degree
// P−1: a degree-3 monomial at P = 4, t = 1 reshares nothing. Only the
// columns such a monomial reads are dealt, in one input round, and the
// outputs open in one batched round. A degree-1 monomial's column sum is
// its owner's own integer sum, and the noise is one vector per holder
// (inputNoise): both reach nothing but the opening and are added there
// unshared, so a purely linear release is one masked-sum round. The
// builder keeps the dealt columns as they lie in data's one array.
func (r *release) mpcPolySum(q *poly.Quantized, data *quantized, noise *noiseDraw) ([]int64, error) {
	p := r.p
	n, m := data.cols, data.rows
	owner := func(j int) int { return p.partyOf(p.clientOf(j, n)) }
	b := circuit.NewBuilder(p.Parties, p.Threshold)
	cols := make([]bgw.Vec, n)
	col := func(j int) bgw.Vec {
		if cols[j] == nil {
			cols[j] = b.InputVec(owner(j), data.col(j))
		}
		return cols[j]
	}
	sums := make([]bgw.Val, n)
	colSum := func(j int) bgw.Val {
		if sums[j] == nil {
			var s int64
			for _, v := range data.col(j) {
				s += v
			}
			sums[j] = b.Input(owner(j), s)
		}
		return sums[j]
	}

	d := q.Source.OutDim()
	accs := make([]bgw.Val, d)
	var factors []bgw.Vec
	for t, pol := range q.Source.Dims {
		acc := b.Zero()
		for l, mono := range pol.Monomials {
			coef := q.Coefs[t][l]
			var term bgw.Val
			switch k := mono.Degree(); k {
			case 0:
				acc = b.AddConst(acc, coef*int64(m))
				continue
			case 1:
				term = colSum(singleVar(mono.Exps))
			default:
				factors = factors[:0]
				for j, e := range mono.Exps {
					for range e {
						factors = append(factors, col(j))
					}
				}
				prod := factors[0]
				for _, f := range factors[1 : k-1] {
					prod = b.Hadamard(prod, f)
				}
				term = b.Dot(prod, factors[k-1])
			}
			acc = b.Add(acc, b.MulConst(term, coef))
		}
		accs[t] = acc
	}
	out := b.FromScalars(accs)
	for h := range noise.holders {
		out = p.inputNoise(b, out, h, d)
	}
	outIdx := b.OpenVecIdx(out)
	res, err := r.runOnce(b, 0xb6d5, circuit.Bindings{InputVecs: noise.vectors})
	if err != nil {
		return nil, err
	}
	return res.OpenedVec(outIdx), nil
}

// polyBound statically bounds the noiseless aggregate from the
// per-record monomial bounds.
func polyBound(q *poly.Quantized, data *quantized) float64 {
	maxAbs := float64(data.maxAbs())
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
	return worst * float64(data.rows)
}

func singleVar(exps []int) int {
	for j, e := range exps {
		if e == 1 {
			return j
		}
	}
	panic(invariant.Violation("core: not a degree-1 monomial"))
}
