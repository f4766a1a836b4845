package logreg

import (
	"fmt"
	"math"

	"sqm/internal/approx"
	"sqm/internal/bgw"
	"sqm/internal/core"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/poly"
	"sqm/internal/randx"
)

// TrainGLM generalizes the SQM trainer to an arbitrary polynomial link:
// the per-record gradient is (link(⟨w, x⟩) − y)·x for any univariate
// polynomial link (a Taylor or Chebyshev fit from internal/approx).
// Each round's gradient is a d-dimensional polynomial of (x, y) built
// explicitly and evaluated through the generic Algorithm 3 machinery —
// the fully general (if less optimized) path, demonstrating that SQM
// needs nothing task-specific beyond the polynomial itself.
//
// The link's degree H makes the gradient degree H+1, amplified by
// γ^{H+2}; the field bound therefore caps γ more tightly as H grows
// (the same trade the order-3 trainer hits). Sensitivities come from
// the conservative quantized-domain bound of poly.Quantized.
func TrainGLM(link *approx.Poly1, x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("logreg: %d rows but %d labels", x.Rows, len(y))
	}
	if link.Degree() < 1 {
		return nil, fmt.Errorf("logreg: link must have degree >= 1")
	}
	d := x.Cols

	// One calibration pass: quantize the round polynomial at a
	// representative w (coefficient magnitudes only enter through
	// |w| <= 1, so the unit-norm worst case bounds every round).
	wProbe := make([]float64, d)
	for j := range wProbe {
		wProbe[j] = 1 / math.Sqrt(float64(d))
	}
	probe, err := glmGradientPoly(link, wProbe, d)
	if err != nil {
		return nil, err
	}
	qProbe, err := probe.Quantize(cfg.Gamma, randx.New(cfg.Seed^0x77))
	if err != nil {
		return nil, err
	}
	// SensitivityBound is coordinate-wise: with ‖x‖₂ <= 1 every
	// coordinate (and the 0/1 label) is bounded by 1. The resulting Δ
	// is still looser than the specialized Lemma-7 analysis — expanded
	// monomials are bounded individually, losing the inner-product
	// structure — which is the quantifiable price of full generality
	// (see TestGLMGeneralityPremium).
	delta2, delta1 := qProbe.SensitivityBound(1)
	mu, err := cfg.calibrate(delta2, delta1)
	if err != nil {
		return nil, err
	}

	// Augment once: variables are (x_1..x_d, y).
	full := linalg.NewMatrix(x.Rows, d+1)
	for i := 0; i < x.Rows; i++ {
		copy(full.Row(i), x.Row(i))
		full.Set(i, d, y[i])
	}

	// Every round is a release of its own, on its own engine: there is no
	// set-up to book, and an empty batch releases nothing.
	coin := randx.New(cfg.Seed ^ 0x5e4f)
	return cfg.sgd(initWeights(d, randx.New(cfg.Seed^0x91a7)), x.Rows, mu, bgw.Stats{}, func(r int, w []float64) ([]float64, *core.Trace, error) {
		batch := coin.BernoulliSubset(x.Rows, cfg.SampleRate)
		if len(batch) == 0 {
			return nil, nil, nil
		}
		sub := linalg.NewMatrix(len(batch), d+1)
		for bi, i := range batch {
			copy(sub.Row(bi), full.Row(i))
		}
		f, err := glmGradientPoly(link, w, d)
		if err != nil {
			return nil, nil, err
		}
		return core.EvaluatePolynomialSum(f, sub, core.Params{
			Gamma:      cfg.Gamma,
			Mu:         mu,
			NumClients: d + 1,
			Engine:     cfg.Engine,
			Parties:    cfg.Parties,
			Seed:       cfg.Seed + uint64(r)*100003,
			Recorder:   cfg.Recorder,
			Fault:      cfg.Fault,
		})
	})
}

// glmGradientPoly expands (link(⟨w, x⟩) − y)·x_t into an explicit
// d-dimensional polynomial over the d+1 variables (x, y).
func glmGradientPoly(link *approx.Poly1, w []float64, d int) (*poly.Multi, error) {
	dims := make([]*poly.Polynomial, d)
	// Pre-expand the powers ⟨w, x⟩^h as monomial maps keyed by the
	// exponent multiset, iteratively: pow_{h} = pow_{h-1} * ⟨w, x⟩.
	type term struct {
		coef float64
		exps []int // over d variables
	}
	powers := make([][]term, link.Degree()+1)
	powers[0] = []term{{coef: 1, exps: make([]int, d)}}
	for h := 1; h <= link.Degree(); h++ {
		var next []term
		merged := map[string]int{}
		for _, t := range powers[h-1] {
			for j := 0; j < d; j++ {
				if mathx.EqualWithin(w[j], 0, 0) {
					continue
				}
				exps := append([]int(nil), t.exps...)
				exps[j]++
				key := fmt.Sprint(exps)
				if idx, ok := merged[key]; ok {
					next[idx].coef += t.coef * w[j]
					continue
				}
				merged[key] = len(next)
				next = append(next, term{coef: t.coef * w[j], exps: exps})
			}
		}
		powers[h] = next
	}
	for t := 0; t < d; t++ {
		var ms []poly.Monomial
		for h, c := range link.Coefs {
			if mathx.EqualWithin(c, 0, 0) {
				continue
			}
			for _, tm := range powers[h] {
				exps := make([]int, d+1)
				copy(exps, tm.exps)
				exps[t]++
				ms = append(ms, poly.Monomial{Coef: c * tm.coef, Exps: exps})
			}
		}
		// − y·x_t term.
		yx := make([]int, d+1)
		yx[t], yx[d] = 1, 1
		ms = append(ms, poly.Monomial{Coef: -1, Exps: yx})
		p, err := poly.NewPolynomial(d+1, ms...)
		if err != nil {
			return nil, err
		}
		dims[t] = p
	}
	return poly.NewMulti(dims...)
}
