package core

import (
	"math"
	"runtime"
	"sync"

	"sqm/internal/bgw"
	"sqm/internal/chunk"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
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
	return p.begin(clientRNGs).covariance(x)
}

// covariance is Covariance over the release's clients.
func (r *release) covariance(x *linalg.Matrix) (*linalg.Matrix, *Trace, error) {
	qd := quantizeByClient(x, r.p, r.rngs)
	// The release is metered at Lemma 5's closed form for unit-norm
	// records.
	pairs := x.Cols * (x.Cols + 1) / 2
	upper, err := r.evaluate(gramBound(float64(qd.maxAbs()), x.Rows), sens(CovarianceSensitivities(r.p.Gamma, 1, x.Cols)), pairs,
		func() ([]int64, error) {
			upper := make([]int64, pairs)
			accumulateGram(qd, upper)
			return upper, nil
		},
		func(draw *noiseDraw) ([]int64, error) { return r.mpcCovariance(qd, draw) })
	if err != nil {
		return nil, nil, err
	}
	out, tr := r.finishGram(upper, x.Cols)
	return out, tr, nil
}

// accumulateGram adds the upper triangle of dataᵀ·data onto upper with
// direct integer arithmetic. The records pass through a small row-major
// block, so the triangle is summed a record at a time, cache friendly,
// and a record's zero entries skip their products (sparse data); large
// inputs split their records across the cores (chunk.Run), each worker
// summing its own partial triangle, and the exact int64 partials are
// added in whatever order the workers finish, so the result is
// independent of the schedule.
func accumulateGram(qd *quantized, upper []int64) {
	n := qd.cols
	accumulate := func(lo, hi int, dst []int64) {
		rows := make([]int64, max(1, gramBlock/n)*n)
		for blo := lo; blo < hi; blo += len(rows) / n {
			bhi := min(blo+len(rows)/n, hi)
			for a := 0; a < n; a++ {
				for i, v := range qd.col(a)[blo:bhi] {
					rows[i*n+a] = v
				}
			}
			for i := 0; i < bhi-blo; i++ {
				row := rows[i*n : (i+1)*n]
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
	}
	const parallelThreshold = 1 << 22 // ~4M multiply-adds
	if qd.rows*len(upper) < parallelThreshold || qd.rows < 4 {
		accumulate(0, qd.rows, upper)
		return
	}
	var mu sync.Mutex
	chunk.Run(qd.rows, runtime.GOMAXPROCS(0), func(lo, hi int) {
		partial := make([]int64, len(upper))
		accumulate(lo, hi, partial)
		mu.Lock()
		defer mu.Unlock()
		for k, v := range partial {
			upper[k] += v
		}
	})
}

// gramBlock is the integers of accumulateGram's row-major block: 32 KB,
// 34 records at the cov_mono shape's 120 columns, one record from 4 096
// columns up.
const gramBlock = 4096

// gramBound bounds every entry of the Gram matrix of rows records whose
// quantized entries are at most maxAbs in magnitude: rows·maxAbs².
func gramBound(maxAbs float64, rows int) float64 { return maxAbs * maxAbs * float64(rows) }

// mpcCovariance runs the same computation over secret shares with the
// selected Evaluator backend (recordCovariance). The noise draw runs
// while the plan is recorded and the engine deals and multiplies: the
// plan asks for the noise only after its last multiplicative level.
func (r *release) mpcCovariance(qd *quantized, draw *noiseDraw) ([]int64, error) {
	b, outIdx := r.p.recordCovariance(qd, draw.holders)
	res, err := r.runOnce(b, 0x51c0, circuit.Bindings{InputVecs: draw.vectors})
	if err != nil {
		return nil, err
	}
	return res.OpenedVec(outIdx), nil
}

// recordCovariance records the covariance over qd's columns as a
// level-scheduled plan: one input round for the data columns and one
// batched opening round. Only the opening reads the inner products, so
// they keep degree 2t — every party keeps its local products, nothing is
// reshared —
// and the noise enters at the opening: each of the holders adds the
// vector its clients draw their shares onto (inputNoise) to the row it
// publishes, under the opening's zero mask. It returns the builder and
// the index of the opened upper triangle.
func (p *Params) recordCovariance(qd *quantized, holders int) (*circuit.Builder, int) {
	n := qd.cols
	pairs := n * (n + 1) / 2
	b := circuit.NewBuilder(p.Parties, p.Threshold)
	cols := p.inputColumns(b, qd, n)
	var noise bgw.Vec
	for h := range holders {
		noise = p.inputNoise(b, noise, h, pairs)
	}

	pairList := make([]bgw.VecPair, pairs)
	idx := 0
	for a := 0; a < n; a++ {
		for c := a; c < n; c++ {
			pairList[idx] = bgw.VecPair{A: cols[a], B: cols[c]}
			idx++
		}
	}
	dots := b.DotBatch(pairList, 0)
	return b, b.OpenVecIdx(b.AddVec(b.FromScalars(dots), noise))
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
