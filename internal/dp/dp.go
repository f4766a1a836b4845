// Package dp implements the differential-privacy accounting used by SQM
// and its baselines:
//
//   - the Rényi-DP guarantee of the Skellam mechanism (Lemma 1 of the
//     paper, from Agarwal et al. and Bao et al.),
//   - Gaussian RDP for the centralized and local baselines,
//   - RDP→(ε,δ) conversion (Lemma 9, Canonne–Kamath–Steinke),
//   - composition (Lemma 10) and privacy amplification by Poisson
//     subsampling (Lemma 11, Mironov–Talwar–Zhang / Zhu–Wang),
//   - the analytic Gaussian mechanism (Lemma 8, Balle–Wang), and
//   - calibration: the minimal Skellam parameter μ or Gaussian σ that
//     meets a target (ε, δ).
//
// All accountants work on log-space arithmetic so that large RDP values
// never overflow.
package dp

import (
	"errors"
	"fmt"
	"math"

	"sqm/internal/invariant"
	"sqm/internal/mathx"
)

// SkellamRDP returns the Rényi divergence bound τ at integer order
// alpha > 1 for releasing an integer-valued function with L1/L2
// sensitivities delta1, delta2 perturbed by Sk(mu) noise (Lemma 1,
// Eq. 2):
//
//	τ ≤ α·Δ₂²/(4μ) + min( ((2α−1)Δ₂² + 6Δ₁)/(16μ²), 3Δ₁/(4μ) ).
func SkellamRDP(alpha int, delta1, delta2, mu float64) float64 {
	if alpha < 2 {
		panic(invariant.Violation("dp: SkellamRDP needs integer alpha >= 2"))
	}
	if mu <= 0 {
		return math.Inf(1)
	}
	a := float64(alpha)
	lead := a * delta2 * delta2 / (4 * mu)
	t1 := ((2*a-1)*delta2*delta2 + 6*delta1) / (16 * mu * mu)
	t2 := 3 * delta1 / (4 * mu)
	return lead + math.Min(t1, t2)
}

// EffectiveMu prices absent noise: of the n shares Sk(μ/n) that sum to
// Sk(μ), absent are missing from what protects the release — dropped
// before the opening, or known to the adversary, which a distributed
// mechanism cannot count on (Wu et al. 2016) — and what is left is
// Sk(μ·(n − absent)/n). With nothing left it is 0, which SkellamRDP
// answers with +Inf.
func EffectiveMu(mu float64, n, absent int) float64 {
	if absent >= n {
		return 0
	}
	return mu * float64(n-absent) / float64(n)
}

// SkellamRDPClient returns the client-observed RDP bound (Lemmas 3/4).
// A curious client knows its own local noise, so the effective noise is
// Sk((n−1)/n · μ); and because the record count is public to clients,
// neighboring databases replace a record, doubling both sensitivities.
func SkellamRDPClient(alpha int, delta1, delta2, mu float64, numClients int) float64 {
	return SkellamRDP(alpha, 2*delta1, 2*delta2, EffectiveMu(mu, numClients, 1))
}

// SkellamRDPCoalition is the client-observed bound under the BGW layer's
// own threat model: t colluding parties out of P. A party samples — and
// so knows — the shares of every client it hosts, up to ⌈n/P⌉ of them, so
// the coalition's view is protected by Sk(μ·(n − t·⌈n/P⌉)/n) only. With
// one client per party and t = 1 it is SkellamRDPClient.
func SkellamRDPCoalition(alpha int, delta1, delta2, mu float64, numClients, parties, t int) float64 {
	if parties < 1 {
		return math.Inf(1)
	}
	hosted := (numClients + parties - 1) / parties
	return SkellamRDP(alpha, 2*delta1, 2*delta2, EffectiveMu(mu, numClients, t*hosted))
}

// GaussianRDP returns the RDP of the Gaussian mechanism at order alpha
// for L2 sensitivity delta2 and noise scale sigma: τ = α·Δ₂²/(2σ²).
func GaussianRDP(alpha, delta2, sigma float64) float64 {
	if sigma <= 0 {
		return math.Inf(1)
	}
	return alpha * delta2 * delta2 / (2 * sigma * sigma)
}

// RDPToDP converts an (alpha, tau)-RDP guarantee to (ε, δ)-DP (Lemma 9):
//
//	ε = τ + ( log(1/δ) + (α−1)·log(1−1/α) − log α ) / (α−1).
func RDPToDP(alpha int, tau, delta float64) float64 {
	if alpha < 2 || delta <= 0 || delta >= 1 {
		panic(invariant.Violation("dp: invalid RDPToDP arguments alpha=%d delta=%v", alpha, delta))
	}
	a := float64(alpha)
	return tau + (math.Log(1/delta)+(a-1)*math.Log(1-1/a)-math.Log(a))/(a-1)
}

// GroupPrivacy converts a record-level (ε, δ)-DP guarantee to a
// k-record (user-level) guarantee by the standard group-privacy bound:
// ε_k = k·ε and δ_k = δ·(e^{kε} − 1)/(e^ε − 1). The paper flags
// user-level accounting as future work (§V-B); this is the baseline
// conversion a deployment can apply today when one user contributes up
// to k records.
func GroupPrivacy(eps, delta float64, k int) (float64, float64) {
	if k < 1 {
		panic(invariant.Violation("dp: group size must be >= 1"))
	}
	if k == 1 {
		return eps, delta
	}
	ke := float64(k) * eps
	// δ_k = δ Σ_{i=0}^{k-1} e^{iε} = δ(e^{kε}−1)/(e^ε−1); computed in a
	// form stable for small ε.
	var factor float64
	if eps < 1e-12 {
		factor = float64(k)
	} else {
		factor = math.Expm1(ke) / math.Expm1(eps)
	}
	dk := delta * factor
	if dk > 1 {
		dk = 1
	}
	return ke, dk
}

// DPDelta inverts Lemma 9 in the δ direction: the smallest δ for which
// an (alpha, tau)-RDP mechanism is (eps, δ)-DP. Values above 1 clamp
// to 1 (the vacuous guarantee).
func DPDelta(alpha int, tau, eps float64) float64 {
	if alpha < 2 {
		panic(invariant.Violation("dp: DPDelta needs integer alpha >= 2"))
	}
	a := float64(alpha)
	logInvDelta := (eps-tau)*(a-1) - (a-1)*math.Log(1-1/a) + math.Log(a)
	if logInvDelta <= 0 {
		return 1
	}
	return math.Exp(-logInvDelta)
}

// BestDelta minimizes DPDelta over integer orders 2..maxAlpha for a
// fixed ε.
func BestDelta(curve Curve, eps float64, maxAlpha int) (delta float64, alpha int) {
	if maxAlpha < 2 {
		maxAlpha = DefaultMaxAlpha
	}
	delta, alpha = 1, 2
	for a := 2; a <= maxAlpha; a++ {
		tau := curve(a)
		if math.IsInf(tau, 1) || math.IsNaN(tau) {
			continue
		}
		if d := DPDelta(a, tau, eps); d < delta {
			delta, alpha = d, a
		}
	}
	return delta, alpha
}

// Compose sums RDP bounds at a common order (Lemma 10).
func Compose(taus ...float64) float64 {
	var s float64
	for _, t := range taus {
		s += t
	}
	return s
}

// SubsampledRDP applies Poisson-subsampling amplification (Lemma 11) at
// integer order alpha >= 2 with sampling rate q, given the base
// mechanism's RDP curve tau(l) for l = 2..alpha:
//
//	τ' = 1/(α−1) · log( (1−q)^{α−1}(αq−q+1)
//	       + Σ_{l=2}^{α} C(α,l)(1−q)^{α−l} q^l e^{(l−1)τ_l} ).
//
// The sum is evaluated in log space so large τ_l cannot overflow; a
// caller that wants more than one order of the same (q, tau) builds the
// curve once (see amplifier).
func SubsampledRDP(alpha int, q float64, tau func(l int) float64) float64 {
	if alpha < 2 {
		panic(invariant.Violation("dp: SubsampledRDP needs integer alpha >= 2"))
	}
	if q > 1 {
		panic(invariant.Violation("dp: sampling rate must be in [0, 1]"))
	}
	return amplify(q, 1, alpha, tau, nil).at(alpha)
}

// amplifier is the one evaluator of Lemma 11: the RDP curve of `rounds`
// adaptive invocations (Lemma 10) of one base mechanism under Poisson
// subsampling at rate q. With the l = 0 and l = 1 terms written like the
// rest (their exponent (l−1)·τ_l read as 0), the logarithm of term l of
// the lemma's sum is
//
//	L_l = log C(α,l) + (α−l)·log(1−q) + e_l,   e_l = l·log q + (l−1)·τ_l,
//
// and e_l does not depend on α: amplify computes it once per (q, base
// curve) — one base-curve call per l — and rdp gets each order's bound
// as one max-shifted log-sum-exp over L_0..L_α; floor bounds it from
// below by L_α = e_α alone. It is a value with value receivers so that
// it, its scratch and the base closure can all stay on a caller's stack.
type amplifier struct {
	q, rounds float64
	base      Curve
	log1q     float64   // log(1−q)
	e         []float64 // e[l], l = 0..maxAlpha
	terms     []float64 // one order's L_l
}

// amplify prepares orders 2..maxAlpha of the composition (maxAlpha < 2
// means DefaultMaxAlpha, as for BestEpsilon). q = 0 samples nothing (the
// curve is 0), q >= 1 composes the base curve as it is, and q < 0 is a
// violation. scratch, when it holds 2·(maxAlpha+1) values, backs the
// evaluator (a calibration hands the same array to every probe, and the
// largest order still live as maxAlpha, so the base curve is called for
// the live range only); otherwise amplify allocates.
func amplify(q float64, rounds, maxAlpha int, base Curve, scratch []float64) amplifier {
	if q < 0 {
		panic(invariant.Violation("dp: sampling rate must be in [0, 1]"))
	}
	if maxAlpha < 2 {
		maxAlpha = DefaultMaxAlpha
	}
	s := amplifier{q: q, rounds: float64(rounds), base: base}
	if q >= 1 || mathx.EqualWithin(q, 0, 0) {
		return s
	}
	n := maxAlpha + 1
	if len(scratch) < 2*n {
		scratch = make([]float64, 2*n)
	}
	s.e, s.terms = scratch[:n], scratch[n:2*n]
	s.log1q = math.Log1p(-q)
	logq := math.Log(q)
	s.e[0], s.e[1] = 0, logq
	for l := 2; l < n; l++ {
		s.e[l] = float64(l)*logq + float64(l-1)*base(l)
	}
	return s
}

// at is the composition's RDP curve: rounds times the per-round bound
// at order alpha <= maxAlpha.
func (s amplifier) at(alpha int) float64 {
	switch {
	case s.q >= 1:
		return s.rounds * s.base(alpha)
	case mathx.EqualWithin(s.q, 0, 0):
		return 0
	}
	return s.rounds * s.rdp(alpha)
}

// lseCut is how far below the largest term, in nats, a term of the
// log-sum-exp may sit before it is skipped: e^-50 < 2e-22 of the sum.
const lseCut = 50

// rdp returns Lemma 11's bound at order alpha <= maxAlpha, for
// 0 < q < 1, as (M + log(1 + Σ_{l≠top} e^{L_l − M})) / (α−1) with
// M = L_top the largest term: no exponent is positive, so no τ_l can
// overflow, and the largest term enters exactly. τ_l = +Inf for some
// l <= alpha gives +Inf; NaN propagates.
func (s amplifier) rdp(alpha int) float64 {
	terms := s.terms[:alpha+1]
	m, top := math.Inf(-1), 0
	lfa := mathx.LogFactorial(alpha)
	for l := range terms {
		// log C(α,l), as mathx.LogBinomial rounds it.
		logC := lfa - mathx.LogFactorial(l) - mathx.LogFactorial(alpha-l)
		t := logC + float64(alpha-l)*s.log1q + s.e[l]
		terms[l] = t
		if t > m {
			m, top = t, l
		}
	}
	if math.IsInf(m, 1) {
		return m
	}
	var rest float64
	for l, t := range terms {
		// A NaN term fails the comparison and stays in the sum.
		if x := t - m; l != top && !(x < -lseCut) {
			rest += math.Exp(x)
		}
	}
	v := (m + math.Log1p(rest)) / float64(alpha-1)
	if v < 0 {
		// The bound is a divergence; tiny negative values are
		// floating-point artifacts of the log-space sum.
		return 0
	}
	return v
}

// floor is a lower bound of at(alpha) read off the l = α term alone, or 0
// when that term gives none (q outside (0, 1); e_α non-positive or NaN).
// L_α is e_α exactly — log C(α,α) and (α−α)·log(1−q) are 0.0 in rdp's own
// arithmetic — and every step rdp and at take from there (the max, + log1p
// of a sum >= 0, / (α−1), × rounds) is monotone in floating point, so
// at(alpha) >= floor(alpha) as floats, +Inf included, or at(alpha) is NaN:
// an order whose floor already converts above a target does too, and is
// rejected without forming a term.
func (s amplifier) floor(alpha int) float64 {
	if s.e == nil {
		return 0
	}
	if x := s.e[alpha] / float64(alpha-1); x > 0 {
		return s.rounds * x
	}
	return 0
}

// Curve is an RDP curve: tau as a function of the integer order alpha.
type Curve func(alpha int) float64

// DefaultMaxAlpha bounds the order search in BestEpsilon.
const DefaultMaxAlpha = 256

// BestEpsilon converts an RDP curve to the tightest (ε, δ) guarantee by
// minimizing over integer orders 2..maxAlpha (Lemma 9 at each order).
func BestEpsilon(curve Curve, delta float64, maxAlpha int) (eps float64, alpha int) {
	if maxAlpha < 2 {
		maxAlpha = DefaultMaxAlpha
	}
	eps = math.Inf(1)
	alpha = 2
	for a := 2; a <= maxAlpha; a++ {
		tau := curve(a)
		if math.IsInf(tau, 1) || math.IsNaN(tau) {
			continue
		}
		if e := RDPToDP(a, tau, delta); e < eps {
			eps, alpha = e, a
		}
	}
	return eps, alpha
}

// ErrCalibration reports that no noise scale in the search bracket meets
// the target privacy level.
var ErrCalibration = errors.New("dp: calibration target unreachable in search bracket")

// CalibrateNoise finds the minimal noise scale s (μ for Skellam, σ for
// Gaussian — anything with eps monotone non-increasing in s) such that
// the mechanism's ε at privacy parameter δ is at most targetEps.
// epsAt(s) must return the converted ε for scale s. The search runs over
// the multiplicative bracket [lo, hi].
func CalibrateNoise(targetEps float64, epsAt func(scale float64) float64, lo, hi float64) (float64, error) {
	return bisectScale(func(s float64) bool { return epsAt(s) <= targetEps }, lo, hi)
}

// bisectScale returns the smallest scale in [lo, hi] that meets a
// monotone predicate (false below some scale, true from it on), bisecting
// log(scale) for 60 iterations.
func bisectScale(meets func(scale float64) bool, lo, hi float64) (float64, error) {
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("dp: invalid bracket [%v, %v]", lo, hi)
	}
	pred := func(logS float64) bool { return meets(math.Exp(logS)) }
	logS, ok := mathx.BisectMonotone(pred, math.Log(lo), math.Log(hi), 60)
	if !ok {
		return 0, ErrCalibration
	}
	return math.Exp(logS), nil
}

// calibrate is CalibrateNoise for `rounds` q-subsampled invocations of
// the mechanism whose base curve at a noise scale is baseAt(scale, ·),
// bisecting on the predicate calibration needs — some order 2..
// DefaultMaxAlpha converts to at most targetEps — instead of on the
// minimum over all of them. min_α ε_α <= target exactly when some
// ε_α <= target (BestEpsilon skips the +Inf and NaN orders the comparison
// rejects), so every decision, and with it the result, is the one
// bisecting SkellamEpsilon / GaussianEpsilon makes.
//
// Precondition: baseAt(·, l) is non-increasing in the scale for every l
// (more noise, less divergence), and with it every order's ε. A satisfied
// probe moves the bisection down, so an order that fails at a satisfied
// probe fails at every later one. Invariant: [aLo, aHi] is a superset of
// the orders that can still meet the target. A probe scans up from aLo —
// the order that satisfied the last satisfied probe — and stops at the
// first order that meets; a satisfied probe then drops the failing
// orders it scanned and those that fail from aHi down (orders in between
// are not evaluated and stay); only orders up to aHi are amplified. The
// predicate answers true only with an order it evaluated, as the full
// scan would, so were the precondition ever broken by an ulp the result
// could only be larger: more noise.
func calibrate(targetEps, delta, q float64, rounds int, baseAt func(scale float64, l int) float64, lo, hi float64) (float64, error) {
	var scratch [2 * (DefaultMaxAlpha + 1)]float64
	aLo, aHi := 2, DefaultMaxAlpha
	return bisectScale(func(scale float64) bool {
		amp := amplify(q, rounds, aHi, func(l int) float64 { return baseAt(scale, l) }, scratch[:])
		meets := func(a int) bool {
			if f := amp.floor(a); f > 0 && RDPToDP(a, f, delta) > targetEps {
				return false
			}
			return RDPToDP(a, amp.at(a), delta) <= targetEps
		}
		a := aLo
		for a <= aHi && !meets(a) {
			a++
		}
		if a > aHi {
			return false
		}
		aLo = a
		for aHi > aLo && !meets(aHi) {
			aHi--
		}
		return true
	}, lo, hi)
}

// SkellamEpsilon is the server-observed (ε, δ) of R adaptive invocations
// of the Skellam mechanism with Poisson subsampling rate q (q = 1 or
// rounds without subsampling compose directly). It is the accountant
// behind Lemma 7's τ_server.
func SkellamEpsilon(delta1, delta2, mu, q float64, rounds int, delta float64, maxAlpha int) (float64, int) {
	amp := amplify(q, rounds, maxAlpha, func(l int) float64 { return SkellamRDP(l, delta1, delta2, mu) }, nil)
	return BestEpsilon(amp.at, delta, maxAlpha)
}

// SkellamClientEpsilon is the client-observed (ε, δ) over R rounds
// (subsampling does not amplify against clients, who know the batch —
// Lemma 7's τ_client).
func SkellamClientEpsilon(delta1, delta2, mu float64, numClients, rounds int, delta float64, maxAlpha int) (float64, int) {
	curve := func(a int) float64 {
		return float64(rounds) * SkellamRDPClient(a, delta1, delta2, mu, numClients)
	}
	return BestEpsilon(curve, delta, maxAlpha)
}

// CalibrateSkellamMu returns the minimal Skellam parameter μ whose
// server-observed ε (with subsampling rate q over the given rounds) is
// at most targetEps at privacy parameter delta.
func CalibrateSkellamMu(targetEps, delta, delta1, delta2, q float64, rounds int) (float64, error) {
	base := func(mu float64, l int) float64 { return SkellamRDP(l, delta1, delta2, mu) }
	return calibrate(targetEps, delta, q, rounds, base, 1e-9, 1e40)
}

// GaussianEpsilon is the (ε, δ) of R rounds of the (optionally
// subsampled) Gaussian mechanism — the accountant used for DPSGD.
func GaussianEpsilon(delta2, sigma, q float64, rounds int, delta float64, maxAlpha int) (float64, int) {
	amp := amplify(q, rounds, maxAlpha, func(l int) float64 { return GaussianRDP(float64(l), delta2, sigma) }, nil)
	return BestEpsilon(amp.at, delta, maxAlpha)
}

// CalibrateGaussianSigma returns the minimal σ for the (subsampled,
// composed) Gaussian mechanism meeting (targetEps, delta).
func CalibrateGaussianSigma(targetEps, delta, delta2, q float64, rounds int) (float64, error) {
	base := func(sigma float64, l int) float64 { return GaussianRDP(float64(l), delta2, sigma) }
	return calibrate(targetEps, delta, q, rounds, base, 1e-9, 1e30)
}

// AnalyticGaussianSigma returns the minimal σ such that adding
// N(0, σ²·I) to a function with L2 sensitivity delta2 satisfies
// (ε, δ)-DP, per the analytic Gaussian mechanism (Lemma 8): σ = Δ /
// (√2(√(χ²+ε) − χ)) where χ solves erfc(χ) − e^ε·erfc(√(χ²+ε)) = 2δ.
func AnalyticGaussianSigma(eps, delta, delta2 float64) (float64, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 || delta2 <= 0 {
		return 0, fmt.Errorf("dp: invalid analytic Gaussian arguments eps=%v delta=%v delta2=%v", eps, delta, delta2)
	}
	f := func(chi float64) float64 {
		return math.Erfc(chi) - math.Exp(eps)*math.Erfc(math.Sqrt(chi*chi+eps)) - 2*delta
	}
	// f decreases from ~2-2δ (χ→−∞) to −2δ (χ→+∞); bracket generously.
	lo, hi := -30.0, 200.0
	chi, err := mathx.Bisect(f, lo, hi, 200)
	if err != nil {
		return 0, fmt.Errorf("dp: analytic Gaussian bracket failed: %w", err)
	}
	denom := math.Sqrt2 * (math.Sqrt(chi*chi+eps) - chi)
	if denom <= 0 {
		return 0, errors.New("dp: analytic Gaussian produced non-positive denominator")
	}
	return delta2 / denom, nil
}

// ClassicGaussianSigma is the textbook calibration
// σ = Δ·√(2·ln(1.25/δ))/ε (valid for ε <= 1; looser than the analytic
// mechanism). Retained for cross-checks in tests.
func ClassicGaussianSigma(eps, delta, delta2 float64) float64 {
	return delta2 * math.Sqrt(2*math.Log(1.25/delta)) / eps
}
