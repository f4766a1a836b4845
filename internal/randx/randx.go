// Package randx provides the seeded random samplers used throughout the
// SQM implementation: Bernoulli coins for stochastic rounding, Gaussian
// noise for the centralized/local baselines, and exact Poisson and
// Skellam samplers for the distributed mechanism itself.
//
// All sampling is driven by an explicit *RNG so experiments are
// reproducible; nothing reads global randomness.
package randx

import (
	cryptorand "crypto/rand"
	"math"
	"math/rand/v2"

	"sqm/internal/invariant"
	"sqm/internal/mathx"
)

// PoissonExactMax is the largest mean for which Poisson (and hence
// Skellam) sampling uses the exact rejection sampler. Above it the
// samplers switch to a rounded-Gaussian surrogate whose total-variation
// distance from the true law is O(1/sqrt(mu)) < 1e-7 — far below the
// delta = 1e-5 regime of the experiments (see DESIGN.md, substitution 2).
const PoissonExactMax = float64(1 << 51)

// ptrsMin is the mean at which Poisson sampling switches from
// sequential inversion to the PTRS rejection sampler.
const ptrsMin = 30

// RNG is a seeded random source. The zero value is not usable; construct
// with New. An RNG is used through its pointer and never copied: r draws
// from pcg by address.
type RNG struct {
	r   rand.Rand
	pcg rand.PCG // New's source; in place, so an RNG is one allocation
}

// New returns an RNG seeded deterministically from seed. The PCG
// stream is statistically strong but predictable; experiments use it
// for reproducibility.
func New(seed uint64) *RNG {
	g := &RNG{}
	g.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	g.r = *rand.New(&g.pcg)
	return g
}

// NewSecure returns an RNG driven by the ChaCha8 cryptographic stream
// cipher. Production deployments must use this (or NewFromOS) for the
// randomness of Shamir shares, Beaver triples and stochastic rounding:
// a predictable stream would let an adversary strip the shares and
// reconstruct the secrets.
func NewSecure(key [32]byte) *RNG {
	return &RNG{r: *rand.New(rand.NewChaCha8(key))}
}

// NewFromOS returns a ChaCha8 RNG keyed from the operating system's
// entropy source.
func NewFromOS() (*RNG, error) {
	var key [32]byte
	if _, err := cryptorand.Read(key[:]); err != nil {
		return nil, err
	}
	return NewSecure(key), nil
}

// Fork derives an independent RNG from the current stream. Useful for
// giving each simulated client its own private randomness.
func (g *RNG) Fork() *RNG {
	return New(g.r.Uint64())
}

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform value in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Perm returns a uniform permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Gaussian returns a normal sample with the given mean and standard
// deviation.
func (g *RNG) Gaussian(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// GaussianVec fills a length-n slice with iid N(0, std^2) samples.
func (g *RNG) GaussianVec(n int, std float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = std * g.r.NormFloat64()
	}
	return v
}

// Poisson returns a sample from Poisson(mu). Sampling is exact
// (inversion for small mu, the PTRS transformed-rejection sampler for
// large mu) for mu <= PoissonExactMax, and a rounded Gaussian with
// matched mean/variance beyond that.
func (g *RNG) Poisson(mu float64) int64 {
	switch {
	case mu < 0 || math.IsNaN(mu):
		panic(invariant.Violation("randx: Poisson mean must be non-negative"))
	case mathx.EqualWithin(mu, 0, 0):
		return 0
	case mu < ptrsMin:
		return g.poissonInversion(mu)
	case mu <= PoissonExactMax:
		return g.poissonPTRS(mu)
	default:
		v := math.Round(g.Gaussian(mu, math.Sqrt(mu)))
		if v < 0 {
			v = 0
		}
		return int64(v)
	}
}

// poissonInversion samples Poisson(mu) by sequential inversion of the
// CDF. Exact; O(mu) time, used only for small means.
func (g *RNG) poissonInversion(mu float64) int64 {
	u := g.r.Float64()
	p := math.Exp(-mu)
	cum := p
	var k int64
	for u > cum {
		k++
		p *= mu / float64(k)
		cum += p
		if mathx.EqualWithin(p, 0, 0) {
			// Floating underflow in the far tail; the residual
			// probability mass here is < 1e-300.
			break
		}
	}
	return k
}

// ptrs holds the constants of Hörmann's PTRS transformed rejection
// sampler (W. Hörmann, 1993) for one mean: they cost a log, a square
// root and two divisions, so a vector of draws at one mean builds them
// once. Valid for mu >= 10.
type ptrs struct {
	mu, logMu, b, a, invAlpha, vr float64
}

func newPTRS(mu float64) ptrs {
	b := 0.931 + 2.53*math.Sqrt(mu)
	return ptrs{
		mu:       mu,
		logMu:    math.Log(mu),
		b:        b,
		a:        -0.059 + 0.02483*b,
		invAlpha: 1.1239 + 1.1328/(b-3.4),
		vr:       0.9277 - 3.6224/(b-2),
	}
}

// draw returns one Poisson(c.mu) sample from g; exact up to
// floating-point evaluation of the acceptance test.
func (c *ptrs) draw(g *RNG) int64 {
	for {
		u := g.r.Float64() - 0.5
		v := g.r.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*c.a/us+c.b)*u + c.mu + 0.43)
		if us >= 0.07 && v <= c.vr {
			return int64(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		k := kf
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*c.invAlpha/(c.a/(us*us)+c.b)) <= k*c.logMu-c.mu-lg {
			return int64(kf)
		}
	}
}

// poissonPTRS samples Poisson(mu) with the PTRS sampler.
func (g *RNG) poissonPTRS(mu float64) int64 {
	c := newPTRS(mu)
	return c.draw(g)
}

// Skellam returns a sample from the symmetric Skellam distribution
// Sk(mu), i.e. the difference of two independent Poisson(mu) draws.
// Mean 0, variance 2*mu. For mu > PoissonExactMax it uses the
// rounded-Gaussian surrogate described in DESIGN.md.
func (g *RNG) Skellam(mu float64) int64 {
	switch {
	case mu < 0 || math.IsNaN(mu):
		panic(invariant.Violation("randx: Skellam parameter must be non-negative"))
	case mathx.EqualWithin(mu, 0, 0):
		return 0
	case mu <= PoissonExactMax:
		return g.Poisson(mu) - g.Poisson(mu)
	default:
		return int64(math.Round(g.Gaussian(0, math.Sqrt(2*mu))))
	}
}

// SkellamVec fills a length-n slice with iid Sk(mu) samples: the values
// n calls of Skellam(mu) return, with the PTRS constants of a mean in
// that sampler's range built once for all 2n Poisson draws.
func (g *RNG) SkellamVec(n int, mu float64) []int64 {
	v := make([]int64, n)
	if mu >= ptrsMin && mu <= PoissonExactMax {
		c := newPTRS(mu)
		for i := range v {
			v[i] = c.draw(g) - c.draw(g)
		}
		return v
	}
	for i := range v {
		v[i] = g.Skellam(mu)
	}
	return v
}

// StochasticRound rounds v to one of its two nearest integers so that
// the result is unbiased: E[StochasticRound(v)] = v. This is the coin
// flip of Algorithm 2 in the paper.
func (g *RNG) StochasticRound(v float64) int64 {
	f := math.Floor(v)
	frac := v - f
	if g.Bernoulli(frac) {
		return int64(f) + 1
	}
	return int64(f)
}

// BernoulliSubset returns the indices i in [0, m) each independently
// included with probability q (Poisson subsampling, used for the shared
// batch sampling in the logistic-regression instantiation).
func (g *RNG) BernoulliSubset(m int, q float64) []int {
	var idx []int
	for i := 0; i < m; i++ {
		if g.Bernoulli(q) {
			idx = append(idx, i)
		}
	}
	return idx
}
