// Package poly represents the multivariate polynomials that SQM
// evaluates: f(x) = (f_1(x), ..., f_d(x)) with
//
//	f_t(x) = Σ_l a_t[l] · Π_j x[j]^{B_t[l,j]}           (Eq. 6)
//
// It provides degrees, evaluation over the reals and over quantized
// integers (with overflow-checked arithmetic), the coefficient
// pre-processing of Algorithm 3 (lines 1–3), and conservative sensitivity
// bounds used by the DP calibration.
package poly

import (
	"errors"
	"fmt"
	"math"

	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// Monomial is a single term a · Π_j x[j]^{Exps[j]}.
type Monomial struct {
	Coef float64
	Exps []int // exponent per variable; len == number of variables
}

// Degree returns Σ_j Exps[j].
func (m Monomial) Degree() int {
	d := 0
	for _, e := range m.Exps {
		if e < 0 {
			panic(invariant.Violation("poly: negative exponent"))
		}
		d += e
	}
	return d
}

// Eval evaluates the monomial at x.
func (m Monomial) Eval(x []float64) float64 {
	v := m.Coef
	for j, e := range m.Exps {
		for k := 0; k < e; k++ {
			v *= x[j]
		}
	}
	return v
}

// Polynomial is one output dimension: a sum of monomials over a shared
// variable set.
type Polynomial struct {
	NumVars   int
	Monomials []Monomial
}

// NewPolynomial validates and constructs a polynomial over numVars
// variables.
func NewPolynomial(numVars int, monomials ...Monomial) (*Polynomial, error) {
	for i, m := range monomials {
		if len(m.Exps) != numVars {
			return nil, fmt.Errorf("poly: monomial %d has %d exponents, want %d", i, len(m.Exps), numVars)
		}
		for _, e := range m.Exps {
			if e < 0 {
				return nil, errors.New("poly: negative exponent")
			}
		}
	}
	return &Polynomial{NumVars: numVars, Monomials: monomials}, nil
}

// MustPolynomial is NewPolynomial but panics on error; for literals.
func MustPolynomial(numVars int, monomials ...Monomial) *Polynomial {
	p, err := NewPolynomial(numVars, monomials...)
	if err != nil {
		panic(invariant.Violation("poly: %v", err))
	}
	return p
}

// Degree returns the maximum monomial degree (0 for the empty
// polynomial).
func (p *Polynomial) Degree() int {
	d := 0
	for _, m := range p.Monomials {
		if md := m.Degree(); md > d {
			d = md
		}
	}
	return d
}

// Eval evaluates the polynomial at x.
func (p *Polynomial) Eval(x []float64) float64 {
	var s float64
	for _, m := range p.Monomials {
		s += m.Eval(x)
	}
	return s
}

// Multi is a d-dimensional polynomial function f = (f_1, ..., f_d).
type Multi struct {
	Dims []*Polynomial
}

// NewMulti validates that all dimensions share a variable count.
func NewMulti(dims ...*Polynomial) (*Multi, error) {
	if len(dims) == 0 {
		return nil, errors.New("poly: empty multi-polynomial")
	}
	nv := dims[0].NumVars
	for i, p := range dims {
		if p.NumVars != nv {
			return nil, fmt.Errorf("poly: dimension %d has %d vars, want %d", i, p.NumVars, nv)
		}
	}
	return &Multi{Dims: dims}, nil
}

// MustMulti is NewMulti but panics on error.
func MustMulti(dims ...*Polynomial) *Multi {
	m, err := NewMulti(dims...)
	if err != nil {
		panic(invariant.Violation("poly: %v", err))
	}
	return m
}

// NumVars returns the shared variable count.
func (f *Multi) NumVars() int { return f.Dims[0].NumVars }

// OutDim returns d, the output dimensionality.
func (f *Multi) OutDim() int { return len(f.Dims) }

// Degree returns λ, the largest monomial degree across all dimensions.
func (f *Multi) Degree() int {
	d := 0
	for _, p := range f.Dims {
		if pd := p.Degree(); pd > d {
			d = pd
		}
	}
	return d
}

// Eval evaluates all dimensions at x.
func (f *Multi) Eval(x []float64) []float64 {
	out := make([]float64, len(f.Dims))
	for t, p := range f.Dims {
		out[t] = p.Eval(x)
	}
	return out
}

// EvalSum evaluates Σ_x f(x) over the rows of a real matrix (the
// noiseless target F(X) of the paper).
func (f *Multi) EvalSum(rows [][]float64) []float64 {
	out := make([]float64, len(f.Dims))
	for _, x := range rows {
		for t, p := range f.Dims {
			out[t] += p.Eval(x)
		}
	}
	return out
}

// ErrOverflow reports that an integer evaluation exceeded int64.
var ErrOverflow = errors.New("poly: int64 overflow during integer evaluation")

// mulCheck multiplies with overflow detection.
func mulCheck(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	c := a * b
	if c/b != a {
		return 0, ErrOverflow
	}
	return c, nil
}

// addCheck adds with overflow detection.
func addCheck(a, b int64) (int64, error) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, ErrOverflow
	}
	return c, nil
}

// Quantized is a Multi whose coefficients have been pre-processed per
// Algorithm 3 (lines 1–3): coefficient a_t[l] of a degree-λ_l monomial is
// scaled by γ^{1+λ−λ_l} and stochastically rounded, so that after the
// data itself is scaled by γ every monomial carries the same overall
// factor γ^{λ+1}.
type Quantized struct {
	Source *Multi
	Gamma  float64
	Lambda int       // degree λ of Source
	Coefs  [][]int64 // Coefs[t][l] = quantized coefficient
}

// Quantize performs the coefficient pre-processing with the supplied
// randomness (the coefficients are public, so this randomness carries no
// privacy weight — it only keeps the rounding unbiased).
func (f *Multi) Quantize(gamma float64, rng *randx.RNG) (*Quantized, error) {
	if gamma < 1 {
		return nil, fmt.Errorf("poly: gamma must be >= 1, got %v", gamma)
	}
	lambda := f.Degree()
	q := &Quantized{Source: f, Gamma: gamma, Lambda: lambda}
	for _, p := range f.Dims {
		cs := make([]int64, len(p.Monomials))
		for l, m := range p.Monomials {
			scale := math.Pow(gamma, float64(1+lambda-m.Degree()))
			if math.Abs(m.Coef)*scale+1 >= float64(1<<62) {
				return nil, ErrOverflow
			}
			cs[l] = rng.StochasticRound(scale * m.Coef)
		}
		q.Coefs = append(q.Coefs, cs)
	}
	return q, nil
}

// Scale returns γ^{λ+1}, the uniform amplification factor every monomial
// carries after coefficient and data quantization; the server divides the
// MPC output by it.
func (q *Quantized) Scale() float64 {
	return math.Pow(q.Gamma, float64(q.Lambda+1))
}

// EvalInt evaluates the quantized polynomial on a quantized record
// (integer vector), dimension by dimension, with overflow checking.
func (q *Quantized) EvalInt(x []int64) ([]int64, error) {
	out := make([]int64, len(q.Source.Dims))
	for t, p := range q.Source.Dims {
		var s int64
		for l, m := range p.Monomials {
			term := q.Coefs[t][l]
			var err error
			for j, e := range m.Exps {
				for k := 0; k < e; k++ {
					term, err = mulCheck(term, x[j])
					if err != nil {
						return nil, err
					}
				}
			}
			s, err = addCheck(s, term)
			if err != nil {
				return nil, err
			}
		}
		out[t] = s
	}
	return out, nil
}

// EvalIntSum evaluates Σ_i f̂(x̂_i) over rows quantized records held
// column-major: col(j) is variable j's column, rows integers.
func (q *Quantized) EvalIntSum(rows int, col func(j int) []int64) ([]int64, error) {
	cols := make([][]int64, q.Source.NumVars())
	for j := range cols {
		cols[j] = col(j)
	}
	x := make([]int64, len(cols))
	out := make([]int64, q.Source.OutDim())
	for i := 0; i < rows; i++ {
		for j, c := range cols {
			x[j] = c[i]
		}
		row, err := q.EvalInt(x)
		if err != nil {
			return nil, err
		}
		for t, v := range row {
			out[t], err = addCheck(out[t], v)
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SensitivityBound returns conservative L2 and L1 sensitivity bounds for
// the quantized evaluation when every record satisfies ‖x‖₂ <= c and the
// neighboring relation adds/removes one record. Per dimension t it bounds
// |f̂_t(x̂)| by Σ_l |â_t[l]| (γc+1)^{λ_l}; Δ₂ is the L2 norm of the
// per-dimension bounds and Δ₁ = min(Δ₂², √d·Δ₂) as in Lemma 4.
// Applications with tighter structure (PCA, LR) override this with the
// closed forms of Lemmas 5 and 7.
func (q *Quantized) SensitivityBound(c float64) (delta2, delta1 float64) {
	gc := q.Gamma*c + 1
	var sumSq float64
	for t, p := range q.Source.Dims {
		var bt float64
		for l, m := range p.Monomials {
			bt += math.Abs(float64(q.Coefs[t][l])) * math.Pow(gc, float64(m.Degree()))
		}
		sumSq += bt * bt
	}
	delta2 = math.Sqrt(sumSq)
	d := float64(q.Source.OutDim())
	delta1 = math.Min(delta2*delta2, math.Sqrt(d)*delta2)
	return delta2, delta1
}

// MaxAbsBound returns an upper bound on max_{‖x‖₂<=c} ‖f(x)‖₂ for the
// *unquantized* polynomial, bounding |x[j]| <= c per coordinate.
func (f *Multi) MaxAbsBound(c float64) float64 {
	var sumSq float64
	for _, p := range f.Dims {
		var bt float64
		for _, m := range p.Monomials {
			bt += math.Abs(m.Coef) * math.Pow(c, float64(m.Degree()))
		}
		sumSq += bt * bt
	}
	return math.Sqrt(sumSq)
}
