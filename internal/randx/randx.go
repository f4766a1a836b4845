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
// with New, or seed one in place with Seed. An RNG is used through its
// pointer and never copied: r draws from pcg by address.
type RNG struct {
	r   rand.Rand
	pcg rand.PCG // New's source; in place, so an RNG is one allocation
	// onPCG marks r as drawing from pcg, which Uint64 and Float64 then
	// call directly instead of through the rand.Source interface.
	onPCG bool
}

// New returns an RNG seeded deterministically from seed. The PCG
// stream is statistically strong but predictable; experiments use it
// for reproducibility.
func New(seed uint64) *RNG {
	g := &RNG{}
	g.Seed(seed)
	return g
}

// Seed makes g, in place, the stream New(seed) returns, so that many
// streams can live in one array: g must not move or be copied after.
func (g *RNG) Seed(seed uint64) {
	g.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	g.r = *rand.New(&g.pcg)
	g.onPCG = true
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

// Mark is a position in a seeded stream, for Rewind.
type Mark struct{ pcg rand.PCG }

// Mark returns g's position in its stream. Only the streams New and Seed
// make have one: a ChaCha8 stream panics with an invariant.Violation.
func (g *RNG) Mark() Mark {
	if !g.onPCG {
		panic(invariant.Violation("randx: only a seeded PCG stream can be marked"))
	}
	return Mark{g.pcg}
}

// Rewind puts g back at m, a Mark it returned: what g drew since is
// drawn again.
func (g *RNG) Rewind(m Mark) { g.pcg = m.pcg }

// Fork derives an independent RNG from the current stream. Useful for
// giving each simulated client its own private randomness.
func (g *RNG) Fork() *RNG {
	return New(g.r.Uint64())
}

// Uint64 returns a uniform 64-bit value: rand.Rand.Uint64's, taken from
// the in-place PCG without the interface call when New built g. Every
// field.Rand draws through it — a seeded dealing's rows twice, once at
// each end of the stream.
func (g *RNG) Uint64() uint64 {
	if g.onPCG {
		return g.pcg.Uint64()
	}
	return g.r.Uint64()
}

// Float64 returns a uniform value in [0, 1): rand.Rand.Float64's bits,
// taken from the in-place PCG without the interface call when New built
// g.
func (g *RNG) Float64() float64 {
	if g.onPCG {
		return float64(g.pcg.Uint64()<<11>>11) / (1 << 53)
	}
	return g.r.Float64()
}

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
	return g.Float64() < p
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
	u := g.Float64()
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
// once. draw is valid for mu >= 10; SkellamSampler.Add checks the range.
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
// floating-point evaluation of the acceptance test, which t, when
// non-nil, decides from its table wherever that gives the computed
// test's answer (acceptTable.accepts).
func (c *ptrs) draw(g *RNG, t *acceptTable) int64 {
	for {
		u := g.Float64() - 0.5
		v := g.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*c.a/us+c.b)*u + c.mu + 0.43)
		if us >= 0.07 && v <= c.vr {
			return int64(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		if t.accepts(c, kf, v*c.invAlpha/(c.a/(us*us)+c.b)) {
			return int64(kf)
		}
	}
}

// logPMF is the bound R(k) = k·log μ − μ − log k! the acceptance test
// holds log L to, for an integral k >= 0.
func (c *ptrs) logPMF(k float64) float64 {
	lg, _ := math.Lgamma(k + 1)
	return k*c.logMu - c.mu - lg
}

// poissonPTRS samples Poisson(mu) with the PTRS sampler.
func (g *RNG) poissonPTRS(mu float64) int64 {
	c := newPTRS(mu)
	return c.draw(g, nil)
}

// tableSize is the window of k an acceptTable covers: ±1024 around the
// mean, past where PTRS reaches its acceptance test at the cov_mono
// share μ ≈ 13 442 (σ ≈ 116). 16 KB.
const tableSize = 2048

// tableBand is the relative margin around T(k) inside which the table
// does not decide. A decision by the table is the computed log test's
// decision when log L and exp R(k) are each within a few ulps: with
// |log L| ≲ 710 wherever T(k) is normal, that is an error below 1e-13,
// four orders under the band.
const tableBand = 1e-9

// acceptTable holds T(k) = exp R(k), the Poisson(μ) mass, for the
// integers k in [lo, lo+tableSize), filled as the tests reach them; 0
// marks an entry unfilled (or underflowed, which the test never trusts).
// It lets PTRS compare its test value L against T(k) in place of
// log L against R(k), where the two must decide alike.
type acceptTable struct {
	lo float64
	t  [tableSize]float64
}

// accepts is PTRS's acceptance test of k at the test value L: log L <=
// R(k). With a table the answer comes from T(k) whenever L is outside
// T(k)'s band and T(k) is a normal number; inside the band, outside the
// window, or on a nil table it is the computed log test itself.
func (t *acceptTable) accepts(c *ptrs, k, l float64) bool {
	if t != nil {
		if i := k - t.lo; i >= 0 && i < tableSize {
			e := &t.t[int(i)]
			if mathx.EqualWithin(*e, 0, 0) {
				*e = math.Exp(c.logPMF(k))
			}
			if tk := *e; tk >= 0x1p-1022 {
				if l <= tk*(1-tableBand) {
					return true
				}
				if l >= tk*(1+tableBand) {
					return false
				}
			}
		}
	}
	return math.Log(l) <= c.logPMF(k)
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

// SkellamVec returns a length-n slice of iid Sk(mu) samples: the values n
// calls of Skellam(mu) return, in order, drawn through a SkellamSampler
// on this one stream.
func (g *RNG) SkellamVec(n int, mu float64) []int64 {
	s := NewSkellamSampler(mu) // on the stack: Add does not keep it
	return s.Add(g, make([]int64, n))
}

// SkellamSampler draws Sk(μ) onto vectors from any number of streams:
// the PTRS constants of μ built once, and one acceptance table, shared by
// every stream that draws through the sampler, in place of the test's
// log. A release that draws its n clients' shares at one μ/n builds one
// and fills its table once instead of n times. The draws are those of
// per-sample Skellam on each stream. 16 KB; a value that does not
// escape stays on its builder's stack.
type SkellamSampler struct {
	c   ptrs
	tab acceptTable
}

// NewSkellamSampler returns a sampler of Sk(mu).
func NewSkellamSampler(mu float64) SkellamSampler {
	return SkellamSampler{c: newPTRS(mu), tab: acceptTable{lo: math.Max(0, math.Floor(mu)-tableSize/2)}}
}

// Add adds iid Sk(μ) samples drawn from g onto dst and returns it: the
// values len(dst) calls of g.Skellam(μ) return, in order. With μ in
// PTRS's range every Poisson draw goes through the sampler's constants
// and table; any other mean draws per sample. It allocates nothing.
func (s *SkellamSampler) Add(g *RNG, dst []int64) []int64 {
	c := &s.c
	if !(c.mu >= ptrsMin && c.mu <= PoissonExactMax) {
		for i := range dst {
			dst[i] += g.Skellam(c.mu)
		}
		return dst
	}
	for i := range dst {
		dst[i] += c.draw(g, &s.tab) - c.draw(g, &s.tab)
	}
	return dst
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
// batch sampling in the logistic-regression instantiation). The result
// is sized once, at the mean plus four standard deviations of its
// length, so it grows only past that.
func (g *RNG) BernoulliSubset(m int, q float64) []int {
	var idx []int
	if q := min(q, 1); q > 0 {
		mean := float64(m) * q
		idx = make([]int, 0, min(m, int(mean+4*math.Sqrt(mean*(1-q)))+1))
	}
	for i := 0; i < m; i++ {
		if g.Bernoulli(q) {
			idx = append(idx, i)
		}
	}
	return idx
}
