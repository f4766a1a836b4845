package dp

import (
	"math"
	"testing"

	"sqm/internal/mathx"
)

// subsampledRDPChained is Lemma 11 as this package evaluated it before
// the amplifier: one order at a time, the α−1 terms folded into the
// running sum by a chain of mathx.LogAdd. It is the oracle the kernel is
// held to (lemma11_test.go); q must lie strictly between 0 and 1.
func subsampledRDPChained(alpha int, q float64, tau func(l int) float64) float64 {
	a := float64(alpha)
	logq := math.Log(q)
	log1q := math.Log1p(-q)
	// l = 0 and l = 1 terms collapse into (1-q)^{α-1}(αq - q + 1).
	acc := (a-1)*log1q + math.Log(a*q-q+1)
	for l := 2; l <= alpha; l++ {
		tl := tau(l)
		if math.IsInf(tl, 1) {
			return math.Inf(1)
		}
		term := mathx.LogBinomial(alpha, l) + float64(alpha-l)*log1q + float64(l)*logq + float64(l-1)*tl
		acc = mathx.LogAdd(acc, term)
	}
	v := acc / (a - 1)
	if v < 0 {
		return 0
	}
	return v
}

func TestSkellamRDPLeadingTermMatchesGaussian(t *testing.T) {
	// For large mu the Skellam RDP approaches the Gaussian RDP with
	// sigma^2 = 2*mu (variance matching): α·Δ²/(4μ) = α·Δ²/(2σ²).
	alpha, d2 := 8, 100.0
	mu := 1e12
	sk := SkellamRDP(alpha, d2, d2, mu)
	ga := GaussianRDP(float64(alpha), d2, math.Sqrt(2*mu))
	if math.Abs(sk-ga) > 1e-6*ga+1e-18 {
		t.Fatalf("Skellam %v vs Gaussian %v", sk, ga)
	}
}

func TestSkellamRDPMonotoneInAlphaAndMu(t *testing.T) {
	prev := 0.0
	for a := 2; a <= 32; a++ {
		tau := SkellamRDP(a, 10, 10, 1e4)
		if tau <= prev {
			t.Fatalf("tau not increasing in alpha at %d", a)
		}
		prev = tau
	}
	if SkellamRDP(4, 10, 10, 1e3) <= SkellamRDP(4, 10, 10, 1e6) {
		t.Fatal("tau must decrease as mu grows")
	}
}

func TestSkellamRDPZeroMu(t *testing.T) {
	if !math.IsInf(SkellamRDP(2, 1, 1, 0), 1) {
		t.Fatal("mu=0 must give infinite tau")
	}
}

func TestSkellamRDPUsesMinBranch(t *testing.T) {
	// Small mu: the quadratic branch ((2α−1)Δ²+6Δ₁)/(16μ²) exceeds
	// 3Δ₁/(4μ); the min must pick the linear branch.
	alpha, d1, d2, mu := 2, 4.0, 2.0, 0.5
	got := SkellamRDP(alpha, d1, d2, mu)
	lead := float64(alpha) * d2 * d2 / (4 * mu)
	lin := 3 * d1 / (4 * mu)
	quad := ((2*float64(alpha)-1)*d2*d2 + 6*d1) / (16 * mu * mu)
	if quad <= lin {
		t.Fatalf("test setup wrong: quad %v <= lin %v", quad, lin)
	}
	if math.Abs(got-(lead+lin)) > 1e-12 {
		t.Fatalf("got %v, want lead+linear %v", got, lead+lin)
	}
}

func TestSkellamRDPClient(t *testing.T) {
	// Lemma 3: tau_client = αnΔ²/((n−1)μ) + 3nΔ₁/(2(n−1)μ) when the
	// linear branch of the min is active.
	alpha, d1, d2, mu, n := 4, 3.0, 3.0, 10.0, 5
	got := SkellamRDPClient(alpha, d1, d2, mu, n)
	a, nn := float64(alpha), float64(n)
	wantLead := a * nn * d2 * d2 / ((nn - 1) * mu)
	wantLin := 3 * nn * d1 / (2 * (nn - 1) * mu)
	effMu := mu * (nn - 1) / nn
	quad := ((2*a-1)*4*d2*d2 + 6*2*d1) / (16 * effMu * effMu)
	want := wantLead + math.Min(quad, wantLin)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !math.IsInf(SkellamRDPClient(2, 1, 1, 10, 1), 1) {
		t.Fatal("single client has no distributed protection")
	}
}

// TestCoalitionViewPricesHostedShares: one function prices absent noise.
// At cov_mono's shape — 120 clients hosted on 4 parties, t = 1 — a
// curious party knows the 30 shares it sampled, so its view is protected
// by 0.75 μ where the one-curious-client bound assumes 119/120 μ, and the
// coalition-view ε is strictly above SkellamClientEpsilon; with one client
// per party and t = 1 the two are the same number, bit for bit.
func TestCoalitionViewPricesHostedShares(t *testing.T) {
	const n, mu, delta = 120, 1e6, 1e-5
	if got := EffectiveMu(mu, n, 30); got != 0.75*mu {
		t.Fatalf("EffectiveMu(μ, 120, 30) = %v, want 0.75 μ", got)
	}
	if got, want := EffectiveMu(mu, n, 1), mu*119/120; got != want {
		t.Fatalf("EffectiveMu(μ, 120, 1) = %v, want %v", got, want)
	}
	if EffectiveMu(mu, 4, 4) != 0 || EffectiveMu(mu, 4, 9) != 0 {
		t.Fatal("no share left must price as no noise")
	}
	d2 := 50.0
	coalition := func(parties, th int) float64 {
		eps, _ := BestEpsilon(func(a int) float64 { return SkellamRDPCoalition(a, d2, d2, mu, n, parties, th) }, delta, DefaultMaxAlpha)
		return eps
	}
	client, _ := SkellamClientEpsilon(d2, d2, mu, n, 1, delta, DefaultMaxAlpha)
	if hosted := coalition(4, 1); hosted <= client {
		t.Fatalf("120 clients on 4 parties, t = 1: coalition-view ε %v is not above the client-view ε %v", hosted, client)
	}
	if own := coalition(n, 1); own != client {
		t.Fatalf("one client per party, t = 1: coalition-view ε %v, client-view ε %v; want equal", own, client)
	}
	if coalition(4, 2) <= coalition(4, 1) {
		t.Fatal("a larger coalition must not see more noise")
	}
	if !math.IsInf(SkellamRDPCoalition(2, 1, 1, mu, n, 4, 4), 1) {
		t.Fatal("a coalition hosting every client has no distributed protection")
	}
	for _, a := range []int{2, 7, 64} {
		if SkellamRDPCoalition(a, 3, 3, 10, 5, 5, 1) != SkellamRDPClient(a, 3, 3, 10, 5) {
			t.Fatalf("α = %d: one client per party, t = 1 is not the client bound", a)
		}
	}
}

func TestClientWeakerThanServer(t *testing.T) {
	for _, n := range []int{2, 5, 50} {
		s := SkellamRDP(4, 10, 10, 1e4)
		c := SkellamRDPClient(4, 10, 10, 1e4, n)
		if c <= s {
			t.Fatalf("n=%d: client tau %v should exceed server tau %v", n, c, s)
		}
	}
	// The client/server gap shrinks as n grows (the n/(n−1) factor → 1,
	// but the doubled sensitivity keeps client ≈ 4x server).
	c2 := SkellamRDPClient(4, 10, 10, 1e4, 2)
	c100 := SkellamRDPClient(4, 10, 10, 1e4, 100)
	if c100 >= c2 {
		t.Fatal("client tau should decrease with more clients")
	}
}

func TestGaussianRDP(t *testing.T) {
	if got := GaussianRDP(3, 2, 4); math.Abs(got-3*4/32.0) > 1e-15 {
		t.Fatalf("GaussianRDP = %v", got)
	}
	if !math.IsInf(GaussianRDP(2, 1, 0), 1) {
		t.Fatal("sigma=0 must be infinite")
	}
}

func TestRDPToDPKnownValue(t *testing.T) {
	// Sanity against hand computation: alpha=2, tau=1, delta=1e-5:
	// eps = 1 + log(1e5) + 1*log(1/2) - log(2) = 1 + 11.5129 - 1.3863.
	got := RDPToDP(2, 1, 1e-5)
	want := 1 + math.Log(1e5) + math.Log(0.5) - math.Log(2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestRDPToDPTighterThanNaive(t *testing.T) {
	// The CKS conversion is at least as tight as the classic
	// eps = tau + log(1/δ)/(α−1).
	for _, alpha := range []int{2, 8, 64} {
		tau := 0.5
		got := RDPToDP(alpha, tau, 1e-5)
		naive := tau + math.Log(1e5)/float64(alpha-1)
		if got > naive+1e-12 {
			t.Fatalf("alpha=%d: CKS %v looser than naive %v", alpha, got, naive)
		}
	}
}

func TestGroupPrivacy(t *testing.T) {
	eps, delta := GroupPrivacy(0.5, 1e-6, 1)
	if eps != 0.5 || delta != 1e-6 {
		t.Fatal("k=1 must be identity")
	}
	e3, d3 := GroupPrivacy(0.5, 1e-6, 3)
	if e3 != 1.5 {
		t.Fatalf("eps_3 = %v", e3)
	}
	want := 1e-6 * (math.Expm1(1.5) / math.Expm1(0.5))
	if math.Abs(d3-want) > 1e-18 {
		t.Fatalf("delta_3 = %v, want %v", d3, want)
	}
	// Tiny eps limit: factor → k.
	_, dk := GroupPrivacy(1e-15, 1e-6, 10)
	if math.Abs(dk-1e-5) > 1e-12 {
		t.Fatalf("small-eps delta_k = %v, want 1e-5", dk)
	}
	// Delta clamps to 1.
	if _, dBig := GroupPrivacy(5, 0.01, 10); dBig != 1 {
		t.Fatalf("delta should clamp to 1, got %v", dBig)
	}
}

func TestGroupPrivacyMonotoneInK(t *testing.T) {
	prevE, prevD := 0.0, 0.0
	for k := 1; k <= 8; k++ {
		e, d := GroupPrivacy(0.3, 1e-7, k)
		if e <= prevE || d <= prevD {
			t.Fatalf("k=%d: guarantee must weaken monotonically", k)
		}
		prevE, prevD = e, d
	}
}

func TestDPDeltaInvertsRDPToDP(t *testing.T) {
	// eps = RDPToDP(alpha, tau, delta) and delta = DPDelta(alpha, tau,
	// eps) must be inverse maps.
	for _, alpha := range []int{2, 8, 32} {
		for _, tau := range []float64{0.1, 1, 5} {
			eps := RDPToDP(alpha, tau, 1e-5)
			back := DPDelta(alpha, tau, eps)
			if math.Abs(back-1e-5) > 1e-12 {
				t.Fatalf("alpha=%d tau=%v: delta round trip %v", alpha, tau, back)
			}
		}
	}
}

func TestDPDeltaClampsToOne(t *testing.T) {
	// eps far below tau: no meaningful delta.
	if got := DPDelta(4, 100, 0.1); got != 1 {
		t.Fatalf("DPDelta = %v, want 1", got)
	}
}

func TestBestDeltaConsistentWithBestEpsilon(t *testing.T) {
	curve := func(a int) float64 { return GaussianRDP(float64(a), 1, 5) }
	eps, _ := BestEpsilon(curve, 1e-5, 128)
	delta, _ := BestDelta(curve, eps, 128)
	if delta > 1e-5*1.01 {
		t.Fatalf("BestDelta(%v) = %v, want <= 1e-5", eps, delta)
	}
}

func TestCompose(t *testing.T) {
	if got := Compose(1, 2, 3.5); got != 6.5 {
		t.Fatalf("Compose = %v", got)
	}
	if got := Compose(); got != 0 {
		t.Fatalf("empty Compose = %v", got)
	}
}

func TestSubsampledRDPEdgeCases(t *testing.T) {
	tau := func(l int) float64 { return float64(l) * 0.01 }
	if got := SubsampledRDP(4, 0, tau); got != 0 {
		t.Fatalf("q=0 should give 0, got %v", got)
	}
	if got := SubsampledRDP(4, 1, tau); got != tau(4) {
		t.Fatalf("q=1 should give base tau, got %v", got)
	}
}

func TestSubsampledRDPAmplifies(t *testing.T) {
	tau := func(l int) float64 { return float64(l) * 0.5 }
	for _, q := range []float64{0.001, 0.01, 0.1} {
		sub := SubsampledRDP(8, q, tau)
		if sub >= tau(8) {
			t.Fatalf("q=%v: subsampled tau %v not smaller than base %v", q, sub, tau(8))
		}
		if sub < 0 {
			t.Fatalf("q=%v: negative tau %v", q, sub)
		}
	}
	// Monotone in q.
	if SubsampledRDP(8, 0.001, tau) >= SubsampledRDP(8, 0.1, tau) {
		t.Fatal("amplification should be stronger at smaller q")
	}
}

func TestSubsampledRDPSmallQScaling(t *testing.T) {
	// For tiny q and moderate tau, the bound behaves like O(q²) at
	// alpha=2 — halving q should reduce tau by roughly 4x.
	tau := func(l int) float64 { return 1.0 }
	a := SubsampledRDP(2, 1e-3, tau)
	b := SubsampledRDP(2, 5e-4, tau)
	ratio := a / b
	if ratio < 3 || ratio > 5 {
		t.Fatalf("q-halving ratio = %v, want ~4", ratio)
	}
}

func TestSubsampledRDPLargeTauNoOverflow(t *testing.T) {
	// tau = 1e4 would overflow e^{(l-1)tau} in linear space.
	tau := func(l int) float64 { return 1e4 }
	got := SubsampledRDP(4, 0.001, tau)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("log-space evaluation failed: %v", got)
	}
	if got <= 0 {
		t.Fatalf("expected positive tau, got %v", got)
	}
}

func TestBestEpsilonPicksInteriorAlpha(t *testing.T) {
	curve := func(a int) float64 { return GaussianRDP(float64(a), 1, 5) }
	eps, alpha := BestEpsilon(curve, 1e-5, 256)
	if alpha <= 2 || alpha >= 256 {
		t.Fatalf("alpha = %d should be interior", alpha)
	}
	// Must beat the endpoints.
	if e2 := RDPToDP(2, curve(2), 1e-5); eps > e2 {
		t.Fatalf("eps %v worse than alpha=2 (%v)", eps, e2)
	}
}

func TestAnalyticGaussianSigmaMatchesDefinition(t *testing.T) {
	for _, eps := range []float64{0.25, 1, 4, 16} {
		sigma, err := AnalyticGaussianSigma(eps, 1e-5, 1)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if sigma <= 0 {
			t.Fatalf("eps=%v: sigma=%v", eps, sigma)
		}
		// Verify the defining equation holds at the recovered chi.
		// Reconstruct chi from sigma: Δ/σ = √2(√(χ²+ε)−χ).
		k := 1 / sigma / math.Sqrt2 // = √(χ²+ε) − χ
		chi := (eps - k*k) / (2 * k)
		lhs := math.Erfc(chi) - math.Exp(eps)*math.Erfc(math.Sqrt(chi*chi+eps))
		if math.Abs(lhs-2e-5) > 1e-8 {
			t.Fatalf("eps=%v: defining equation residual %v", eps, lhs-2e-5)
		}
	}
}

func TestAnalyticTighterThanClassic(t *testing.T) {
	for _, eps := range []float64{0.25, 0.5, 1} {
		a, err := AnalyticGaussianSigma(eps, 1e-5, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := ClassicGaussianSigma(eps, 1e-5, 1)
		if a >= c {
			t.Fatalf("eps=%v: analytic sigma %v not tighter than classic %v", eps, a, c)
		}
	}
}

func TestAnalyticGaussianScalesWithSensitivity(t *testing.T) {
	s1, err := AnalyticGaussianSigma(1, 1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s7, err := AnalyticGaussianSigma(1, 1e-5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s7-7*s1) > 1e-9*s7 {
		t.Fatalf("sigma must scale linearly with sensitivity: %v vs %v", s7, 7*s1)
	}
}

func TestAnalyticGaussianBadArgs(t *testing.T) {
	if _, err := AnalyticGaussianSigma(0, 1e-5, 1); err == nil {
		t.Fatal("eps=0 must error")
	}
	if _, err := AnalyticGaussianSigma(1, 0, 1); err == nil {
		t.Fatal("delta=0 must error")
	}
	if _, err := AnalyticGaussianSigma(1, 1e-5, 0); err == nil {
		t.Fatal("delta2=0 must error")
	}
}

func TestCalibrateSkellamMuMeetsTarget(t *testing.T) {
	d2 := 100.0
	d1 := d2 // 1-dim case
	mu, err := CalibrateSkellamMu(1.0, 1e-5, d1, d2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	eps, _ := SkellamEpsilon(d1, d2, mu, 1, 1, 1e-5, DefaultMaxAlpha)
	if eps > 1.0+1e-6 {
		t.Fatalf("calibrated mu gives eps %v > 1", eps)
	}
	// And it is nearly tight: 1% less noise must violate the target.
	epsLess, _ := SkellamEpsilon(d1, d2, mu*0.99, 1, 1, 1e-5, DefaultMaxAlpha)
	if epsLess <= 1.0 {
		t.Fatalf("mu not minimal: 0.99mu still gives eps %v", epsLess)
	}
}

// TestCalibrateSkellamMuPinnedOnBenchmarkLR pins μ bit for bit on the two
// LR configurations benchmark/ calibrates inside every session (ε = 1,
// δ = 1e-5): the mathx.LogFactorial table must not move a single ulp.
// Sensitivities are the bits logreg.Sensitivities(18, 50) and
// core.LR3Protocol.Sensitivity (γ = 8, d = 20) return.
func TestCalibrateSkellamMuPinnedOnBenchmarkLR(t *testing.T) {
	for _, tc := range []struct {
		name           string
		d1, d2, wantMu uint64
		q              float64
		rounds         int
	}{
		{"lr_chan", 0x410981bdf02e2dc4, 0x40dcdb8f482f1a02, 0x41d80c553a558f2a, 0.1, 10},
		{"lr3_tcp", 0x41b28e42d4420904, 0x419098c33cf0cbe2, 0x4333e4e1a20df8c6, 0.05, 20},
	} {
		mu, err := CalibrateSkellamMu(1, 1e-5, math.Float64frombits(tc.d1), math.Float64frombits(tc.d2), tc.q, tc.rounds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := math.Float64bits(mu); got != tc.wantMu {
			t.Errorf("%s: mu = %v (%#x), pinned %#x", tc.name, mu, got, tc.wantMu)
		}
	}
}

func TestCalibratedSkellamMatchesGaussianVariance(t *testing.T) {
	// Headline claim: with negligible Delta1 overhead, the calibrated
	// Skellam variance 2mu approaches the calibrated Gaussian sigma^2.
	d2 := 1000.0
	mu, err := CalibrateSkellamMu(1.0, 1e-5, d2, d2, 1, 1) // d1 = d2: tiny vs d2^2
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := AnalyticGaussianSigma(1.0, 1e-5, d2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := math.Sqrt(2*mu) / sigma
	// RDP accounting is slightly looser than the analytic mechanism, so
	// expect a small constant factor, not orders of magnitude.
	if ratio < 1 || ratio > 1.6 {
		t.Fatalf("noise ratio Skellam/Gaussian = %v, want within [1, 1.6]", ratio)
	}
}

func TestCalibrateGaussianSigmaSubsampled(t *testing.T) {
	sigma, err := CalibrateGaussianSigma(1.0, 1e-5, 1, 0.01, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eps, _ := GaussianEpsilon(1, sigma, 0.01, 1000, 1e-5, DefaultMaxAlpha)
	if eps > 1+1e-6 {
		t.Fatalf("eps = %v", eps)
	}
	// Subsampling must help: the same sigma without amplification over
	// the same rounds would be far over budget.
	epsFull, _ := GaussianEpsilon(1, sigma, 1, 1000, 1e-5, DefaultMaxAlpha)
	if epsFull < 10*eps {
		t.Fatalf("expected large amplification gap, got %v vs %v", epsFull, eps)
	}
}

func TestSkellamEpsilonComposesOverRounds(t *testing.T) {
	d2 := 50.0
	e1, _ := SkellamEpsilon(d2, d2, 1e6, 1, 1, 1e-5, 64)
	e10, _ := SkellamEpsilon(d2, d2, 1e6, 1, 10, 1e-5, 64)
	if e10 <= e1 {
		t.Fatalf("more rounds must cost more: %v vs %v", e10, e1)
	}
}

func TestSkellamClientEpsilon(t *testing.T) {
	d2 := 50.0
	server, _ := SkellamEpsilon(d2, d2, 1e6, 1, 1, 1e-5, 64)
	client, _ := SkellamClientEpsilon(d2, d2, 1e6, 4, 1, 1e-5, 64)
	if client <= server {
		t.Fatalf("client eps %v should exceed server eps %v", client, server)
	}
}

func TestCalibrateNoiseBadBracket(t *testing.T) {
	if _, err := CalibrateNoise(1, func(float64) float64 { return 0 }, -1, 1); err == nil {
		t.Fatal("expected bracket error")
	}
	if _, err := CalibrateNoise(1, func(float64) float64 { return math.Inf(1) }, 1, 2); err != ErrCalibration {
		t.Fatalf("expected ErrCalibration, got %v", err)
	}
}

func BenchmarkSkellamEpsilonSubsampled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SkellamEpsilon(1e6, 1e3, 1e12, 0.001, 5000, 1e-5, 64)
	}
}
