package dp

import (
	"math"
	"testing"
)

// skellamLogPMF returns log p(k) of Sk(μ) = Pois(μ) − Pois(μ) for every k
// in [−K, K], as out[k+K]: log p(k) = −2μ + log I_|k|(2μ), with the
// modified Bessel function summed in log space over its series
// I_n(2μ) = Σ_m μ^{2m+n} / (m!·(m+n)!). The series' terms rise to a peak
// at m* ≈ (√(n² + 4μ²) − n)/2 and fall off on both sides like a normal
// curve of variance at most μ, so the sum keeps the terms within
// 40·√μ + 40 of the peak, forty standard deviations and more (the test
// checks that the pmf's total mass is 1).
func skellamLogPMF(mu float64, K int) []float64 {
	w := int(40*math.Sqrt(mu)) + 40
	peak := func(n int) int {
		return int((math.Sqrt(float64(n*n)+4*mu*mu) - float64(n)) / 2)
	}
	hi := peak(0) + w
	// logFact[i] = log i!, for every m + n the sums reach.
	logFact := make([]float64, hi+K+2)
	for i := 1; i < len(logFact); i++ {
		logFact[i] = logFact[i-1] + math.Log(float64(i))
	}
	logMu := math.Log(mu)
	out := make([]float64, 2*K+1)
	terms := make([]float64, 0, 2*w+1)
	for n := 0; n <= K; n++ {
		c := peak(n)
		terms = terms[:0]
		top := math.Inf(-1)
		for m := max(0, c-w); m <= c+w; m++ {
			lt := float64(2*m+n)*logMu - logFact[m] - logFact[m+n]
			terms = append(terms, lt)
			top = max(top, lt)
		}
		var s float64
		for _, lt := range terms {
			s += math.Exp(lt - top)
		}
		lp := -2*mu + top + math.Log(s)
		out[K+n], out[K-n] = lp, lp
	}
	return out
}

// exactHockeyStick returns the exact δ(ε) between Sk(μ)+Δ and Sk(μ):
// Σ_k max(0, p(k−Δ) − e^ε·p(k)), over k in [−K, K] with p from
// skellamLogPMF. By the symmetry of Sk(μ) the other order gives the
// same sum.
func exactHockeyStick(logp []float64, K, shift int, eps float64) float64 {
	var delta float64
	for k := -K + shift; k <= K; k++ {
		p := logp[k-shift+K]
		q := logp[k+K]
		if d := math.Exp(p) - math.Exp(eps+q); d > 0 {
			delta += d
		}
	}
	return delta
}

// TestLemma9BookedDeltaBoundsTheExactDelta checks one release's (ε, δ)
// against the distributions it describes: the Skellam mechanism at noise
// μ, neighbours one integer shift Δ apart in one coordinate (Δ₁ = Δ₂ = Δ),
// booked through Lemma 1 and Lemma 9 at δ = 10⁻⁵ (SkellamEpsilon). The
// exact hockey-stick divergence at that ε must not exceed δ. The sum runs
// over |k| ≤ K = 40·√(2μ) + 4Δ + 40 (Δ = 10, the largest shift), forty
// standard deviations of Sk(μ) and more: by Bernstein's inequality the
// mass it leaves out, P(|X| > K) ≤ 2·exp(−K²/(2(2μ + K/3))), is below
// e^−300 at every μ here. The negative control
// books at 2μ while drawing Sk(μ) — the halved noise of a μ counted
// twice — and must break the bound.
func TestLemma9BookedDeltaBoundsTheExactDelta(t *testing.T) {
	const delta = 1e-5
	for _, mu := range []float64{10, 100, 1000} {
		K := int(40*math.Sqrt(2*mu)) + 4*10 + 40
		logp := skellamLogPMF(mu, K)
		var mass float64
		for _, lp := range logp {
			mass += math.Exp(lp)
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("μ = %v: the pmf sums to %v over |k| ≤ %d", mu, mass, K)
		}
		for _, shift := range []int{1, 3, 10} {
			d := float64(shift)
			eps, alpha := SkellamEpsilon(d, d, mu, 1, 1, delta, DefaultMaxAlpha)
			exact := exactHockeyStick(logp, K, shift, eps)
			t.Logf("μ = %v, Δ = %d: ε = %.4f (α = %d), exact δ = %.3g, %.3f of the booked", mu, shift, eps, alpha, exact, exact/delta)
			if exact > delta {
				t.Errorf("μ = %v, Δ = %d: exact δ %.3g at the booked ε = %.4f exceeds the booked δ = %g", mu, shift, exact, eps, delta)
			}
		}
		// Negative control: the ε of Sk(2μ) does not hold for Sk(μ).
		const shift = 3
		eps, _ := SkellamEpsilon(shift, shift, 2*mu, 1, 1, delta, DefaultMaxAlpha)
		exact := exactHockeyStick(logp, K, shift, eps)
		t.Logf("μ = %v, Δ = %d, booked at 2μ: ε = %.4f, exact δ = %.3g, %.1f× the booked", mu, shift, eps, exact, exact/delta)
		if exact <= delta {
			t.Errorf("μ = %v, Δ = %d: booking at 2μ while drawing Sk(μ) kept exact δ %.3g within %g; the oracle cannot see a halved μ", mu, shift, exact, delta)
		}
	}
}
