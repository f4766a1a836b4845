package core

import (
	"math"
	"runtime"
	"sync"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
	"sqm/internal/quant"
)

// CovarianceSensitivities returns Lemma 5's L2/L1 sensitivities of the
// quantized covariance release for records with ‖x‖₂ <= c over n
// attributes: Δ₂ = γ²c² + n, Δ₁ = min(Δ₂², √d·Δ₂) with d = n².
func CovarianceSensitivities(gamma, c float64, n int) (delta2, delta1 float64) {
	delta2 = gamma*gamma*c*c + float64(n)
	d := float64(n) * float64(n)
	delta1 = math.Min(delta2*delta2, math.Sqrt(d)*delta2)
	return delta2, delta1
}

// Covariance runs the PCA instantiation of SQM (§V-A): the clients
// quantize their columns, jointly compute the Gram matrix X̂ᵀX̂ of the
// quantized data, and perturb it with a symmetric Skellam noise matrix
// assembled from per-client shares (entry (a,b), a <= b, receives
// Σ_j Sk(μ/n) and is mirrored). The server receives C̃ and down-scales
// by γ². The polynomial here is f(x) = xᵀx with unit coefficients, so
// per the paper no coefficient pre-processing is applied and the scale
// is γ^λ = γ².
func Covariance(x *linalg.Matrix, p Params) (*linalg.Matrix, *Trace, error) {
	if err := p.normalize(x.Cols); err != nil {
		return nil, nil, err
	}
	_, clientRNGs := rngFamily(p.Seed, p.NumClients)
	r := p.begin(clientRNGs)
	qd := quantizeByClient(x, &p, clientRNGs)
	// Each Gram entry is at most m·maxAbs²; the release is metered at
	// Lemma 5's closed form for unit-norm records.
	maxAbs := float64(qd.MaxAbs())
	upper, err := r.evaluate(maxAbs*maxAbs*float64(x.Rows), sens(CovarianceSensitivities(p.Gamma, 1, x.Cols)),
		func() ([]int64, error) {
			upper := make([]int64, x.Cols*(x.Cols+1)/2)
			accumulateGram(qd, upper)
			r.drawNoiseOnto(upper)
			return upper, nil
		},
		func() ([]int64, error) { return r.mpcCovariance(qd) })
	if err != nil {
		return nil, nil, err
	}
	out, tr := r.finishGram(upper, x.Cols)
	return out, tr, nil
}

// accumulateGram adds the upper triangle of dataᵀ·data onto upper with
// direct integer arithmetic. Row-major accumulation over records keeps
// the inner loop cache friendly; large inputs split across workers with
// exact int64 partial sums, so the result is independent of the
// schedule.
func accumulateGram(qd *quant.IntMatrix, upper []int64) {
	n := qd.Cols
	accumulate := func(lo, hi int, dst []int64) {
		for i := lo; i < hi; i++ {
			row := qd.Row(i)
			idx := 0
			for a := 0; a < n; a++ {
				va := row[a]
				if va == 0 {
					idx += n - a
					continue
				}
				for b := a; b < n; b++ {
					dst[idx] += va * row[b]
					idx++
				}
			}
		}
	}
	const parallelThreshold = 1 << 22 // ~4M multiply-adds
	if work := qd.Rows * len(upper); work >= parallelThreshold && qd.Rows >= 4 {
		workers := runtime.GOMAXPROCS(0)
		if workers > qd.Rows {
			workers = qd.Rows
		}
		partials := make([][]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * qd.Rows / workers
			hi := (w + 1) * qd.Rows / workers
			partials[w] = make([]int64, len(upper))
			wg.Add(1)
			go func(lo, hi int, dst []int64) {
				defer wg.Done()
				accumulate(lo, hi, dst)
			}(lo, hi, partials[w])
		}
		wg.Wait()
		for _, p := range partials {
			for k, v := range p {
				upper[k] += v
			}
		}
	} else {
		accumulate(0, qd.Rows, upper)
	}
}

// drawNoiseOnto is the plain engine's covariance noise injection: every
// client's Sk(μ/n) draws added onto the triangle in place, in the order
// SkellamVec would produce them. Materialising the share vectors first,
// as addNoise wants them, is n(n+1)/2 integers per client — tens of GB
// at the paper's n = 2 500.
func (r *release) drawNoiseOnto(upper []int64) {
	defer r.noiseTime(time.Now())
	share := r.noiseShare()
	for _, g := range r.rngs {
		for k := range upper {
			upper[k] += g.Skellam(share)
		}
	}
}

// mpcCovariance runs the same computation over secret shares with the
// selected Evaluator backend, recorded as a level-scheduled plan: one
// input round for the data columns and one batched opening round. The
// inner products are the plan's terminal level — every party keeps its
// local products, nothing is reshared — and the noise enters at the
// opening: each party adds the sum of the shares its clients sampled
// (inputNoise) to the row it publishes, under the opening's zero mask.
func (r *release) mpcCovariance(qd *quant.IntMatrix) ([]int64, error) {
	p, n := r.p, qd.Cols
	pairs := n * (n + 1) / 2
	b := circuit.NewBuilder(p.Parties, p.Threshold)
	cols := p.inputColumns(b, qd, n)
	// Drawn and recorded client by client: the recording keeps its own
	// copy, so only one client's draw is live besides it.
	noiseStart := time.Now()
	var noiseAcc bgw.Vec
	for j, g := range r.rngs {
		noiseAcc = p.inputNoise(b, noiseAcc, j, g.SkellamVec(pairs, r.noiseShare()))
	}
	r.noiseTime(noiseStart)

	pairList := make([]bgw.VecPair, pairs)
	idx := 0
	for a := 0; a < n; a++ {
		for c := a; c < n; c++ {
			pairList[idx] = bgw.VecPair{A: cols[a], B: cols[c]}
			idx++
		}
	}
	dots := b.DotBatch(pairList, 0)
	outIdx := b.OpenVecIdx(b.AddVec(b.FromScalars(dots), noiseAcc))
	res, err := r.runOnce(b, 0x51c0)
	if err != nil {
		return nil, err
	}
	return res.OpenedVec(outIdx), nil
}

// finishGram is the server's side of both covariance entry points: the
// opened upper triangle is down-scaled by γ² and mirrored into the
// symmetric estimate C̃/γ². The down-scaling multiplies by 1/γ² where
// Trace.estimate divides: the two differ in the last bit when γ is not a
// power of two, and this one is the expression callers' outputs are
// compared against bit for bit.
func (r *release) finishGram(upper []int64, n int) (*linalg.Matrix, *Trace) {
	tr := r.finish(upper, r.p.Gamma*r.p.Gamma)
	out := linalg.NewMatrix(n, n)
	inv := 1 / tr.Scale
	idx := 0
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			v := float64(upper[idx]) * inv
			out.Set(a, b, v)
			out.Set(b, a, v)
			idx++
		}
	}
	return out, tr
}
