package randx

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"sqm/internal/invariant"
)

func TestNewIsDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := New(43)
	same := true
	for i := 0; i < 10; i++ {
		if New(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestNewSecureDeterministicByKey(t *testing.T) {
	var key [32]byte
	key[0] = 7
	a, b := NewSecure(key), NewSecure(key)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same key must reproduce the stream")
		}
	}
	var other [32]byte
	other[0] = 8
	c := NewSecure(other)
	same := 0
	for i := 0; i < 50; i++ {
		if NewSecure(key).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different keys should diverge")
	}
	// The secure stream drives the samplers like any other source.
	if v := NewSecure(key).Skellam(5); v < -200 || v > 200 {
		t.Fatalf("implausible Skellam draw %d", v)
	}
}

func TestNewFromOS(t *testing.T) {
	a, err := NewFromOS()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFromOS()
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 20; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("independently keyed OS RNGs should diverge")
	}
}

func TestForkDiverges(t *testing.T) {
	g := New(1)
	f := g.Fork()
	equal := 0
	for i := 0; i < 64; i++ {
		if g.Uint64() == f.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("forked stream tracks parent (%d/64 equal)", equal)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	g := New(7)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := New(11)
	const n = 200000
	p := 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestGaussianMoments(t *testing.T) {
	g := New(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := g.Gaussian(2, 3)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("mean = %v, want 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("variance = %v, want 9", variance)
	}
}

func TestGaussianVecLengthAndScale(t *testing.T) {
	g := New(5)
	v := g.GaussianVec(10000, 2)
	if len(v) != 10000 {
		t.Fatalf("len = %d", len(v))
	}
	var sumsq float64
	for _, x := range v {
		sumsq += x * x
	}
	if math.Abs(sumsq/10000-4) > 0.3 {
		t.Errorf("sample variance = %v, want 4", sumsq/10000)
	}
}

func poissonMoments(t *testing.T, mu float64, n int) (mean, variance float64) {
	t.Helper()
	g := New(99)
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := float64(g.Poisson(mu))
		sum += x
		sumsq += x * x
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

func TestPoissonSmallMu(t *testing.T) {
	for _, mu := range []float64{0.1, 1, 5, 20} {
		mean, variance := poissonMoments(t, mu, 100000)
		if math.Abs(mean-mu) > 0.05*mu+0.02 {
			t.Errorf("mu=%v: mean = %v", mu, mean)
		}
		if math.Abs(variance-mu) > 0.1*mu+0.05 {
			t.Errorf("mu=%v: variance = %v", mu, variance)
		}
	}
}

func TestPoissonLargeMuPTRS(t *testing.T) {
	for _, mu := range []float64{30, 100, 10000, 1e8} {
		mean, variance := poissonMoments(t, mu, 50000)
		if math.Abs(mean-mu) > 4*math.Sqrt(mu/50000)*math.Sqrt(mu)/math.Sqrt(mu)+0.01*mu {
			t.Errorf("mu=%v: mean = %v", mu, mean)
		}
		if math.Abs(variance-mu) > 0.1*mu {
			t.Errorf("mu=%v: variance = %v", mu, variance)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	g := New(1)
	for i := 0; i < 10; i++ {
		if g.Poisson(0) != 0 {
			t.Fatal("Poisson(0) must be 0")
		}
	}
}

func TestPoissonNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative mean")
		}
	}()
	New(1).Poisson(-1)
}

func TestPoissonHugeMuSurrogate(t *testing.T) {
	g := New(3)
	mu := 1e18 // beyond PoissonExactMax
	for i := 0; i < 100; i++ {
		x := float64(g.Poisson(mu))
		if math.Abs(x-mu) > 10*math.Sqrt(mu) {
			t.Fatalf("huge-mu Poisson sample %v is implausibly far from %v", x, mu)
		}
	}
}

func TestSkellamMoments(t *testing.T) {
	for _, mu := range []float64{0.5, 2, 50, 1e6} {
		g := New(13)
		const n = 50000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := float64(g.Skellam(mu))
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if math.Abs(mean) > 5*math.Sqrt(2*mu/n) {
			t.Errorf("mu=%v: mean = %v, want ~0", mu, mean)
		}
		if math.Abs(variance-2*mu) > 0.1*2*mu {
			t.Errorf("mu=%v: variance = %v, want %v", mu, variance, 2*mu)
		}
	}
}

func TestSkellamZero(t *testing.T) {
	g := New(1)
	for i := 0; i < 10; i++ {
		if g.Skellam(0) != 0 {
			t.Fatal("Skellam(0) must be 0")
		}
	}
}

func TestSkellamHugeMuSurrogate(t *testing.T) {
	g := New(17)
	mu := 1e20
	const n = 2000
	var sumsq float64
	for i := 0; i < n; i++ {
		sumsq += float64(g.Skellam(mu)) * float64(g.Skellam(mu))
	}
	// E[X*Y] for independent X,Y is 0; just sanity-check magnitude of draws.
	g2 := New(18)
	var varsum float64
	for i := 0; i < n; i++ {
		x := float64(g2.Skellam(mu))
		varsum += x * x
	}
	if math.Abs(varsum/n-2*mu) > 0.15*2*mu {
		t.Fatalf("huge-mu Skellam variance = %v, want %v", varsum/n, 2*mu)
	}
	_ = sumsq
}

// Skellam is closed under summation: sum of k Sk(mu) draws matches
// Sk(k*mu) in its first two moments.
func TestSkellamClosureUnderSummation(t *testing.T) {
	g := New(23)
	const n = 20000
	const k = 4
	const mu = 3.0
	var sumsq float64
	for i := 0; i < n; i++ {
		var s int64
		for j := 0; j < k; j++ {
			s += g.Skellam(mu)
		}
		sumsq += float64(s) * float64(s)
	}
	variance := sumsq / n
	if math.Abs(variance-2*k*mu) > 0.1*2*k*mu {
		t.Fatalf("aggregated variance = %v, want %v", variance, 2.0*k*mu)
	}
}

func TestSkellamVec(t *testing.T) {
	v := New(1).SkellamVec(1000, 5)
	if len(v) != 1000 {
		t.Fatalf("len = %d", len(v))
	}
	nonzero := 0
	for _, x := range v {
		if x != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("Sk(5) vector should not be all zero")
	}
}

// TestSkellamVecMatchesSkellamStream pins the one-stream rule: the
// replica's SkellamVec, a SkellamSampler's Add onto a non-zero vector and
// the plain engine's per-sample Skellam draw the same values from equally
// seeded streams and leave them in the same state, in every sampler
// regime (zero, inversion, both edges of PTRS, the cov_mono share inside
// the acceptance table's window and a mean whose σ dwarfs it, the
// Gaussian surrogate), on a vector as long as an LR step's and a longer
// one.
func TestSkellamVecMatchesSkellamStream(t *testing.T) {
	for _, n := range []int{500, 40} {
		for _, mu := range []float64{0, 5, 29.9, 30, 1e3, cov120Share, 3.16e7, PoissonExactMax, 2 * PoissonExactMax} {
			vecRNG, addRNG, refRNG := New(42), New(42), New(42)
			got := vecRNG.SkellamVec(n, mu)
			base := make([]int64, n)
			for i := range base {
				base[i] = int64(i*i) - 7*int64(n)
			}
			one := NewSkellamSampler(mu)
			added := one.Add(addRNG, append([]int64(nil), base...))
			for i, g := range got {
				want := refRNG.Skellam(mu)
				if g != want {
					t.Fatalf("n=%d mu=%g: SkellamVec[%d] = %d, Skellam stream gives %d", n, mu, i, g, want)
				}
				if added[i] != base[i]+want {
					t.Fatalf("n=%d mu=%g: SkellamSampler.Add[%d] = %d onto %d, Skellam stream gives %d", n, mu, i, added[i], base[i], want)
				}
			}
			a, b, c := vecRNG.Uint64(), addRNG.Uint64(), refRNG.Uint64()
			if a != c || b != c {
				t.Fatalf("n=%d mu=%g: streams diverge after %d samples (%d, %d vs %d)", n, mu, n, a, b, c)
			}

			// One sampler, and so one acceptance table, shared by three
			// streams drawing onto one vector: the sum of what each stream's
			// per-sample Skellam gives.
			s := NewSkellamSampler(mu)
			shared := append([]int64(nil), base...)
			want := append([]int64(nil), base...)
			for seed := uint64(7); seed < 10; seed++ {
				g, ref := New(seed), New(seed)
				shared = s.Add(g, shared)
				for i := range want {
					want[i] += ref.Skellam(mu)
				}
				if a, b := g.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("n=%d mu=%g: shared sampler leaves stream %d diverged (%d vs %d)", n, mu, seed, a, b)
				}
			}
			for i := range want {
				if shared[i] != want[i] {
					t.Fatalf("n=%d mu=%g: shared sampler [%d] = %d, per-stream Skellam sums give %d", n, mu, i, shared[i], want[i])
				}
			}
		}
	}
}

// TestPTRSTableDecidesLikeLog: wherever the table decides, it gives the
// computed log test's answer — at L = T(k) and one ulp either side, just
// outside the band, at L = 0, on entries whose T(k) is subnormal or has
// underflowed to 0, and past the window.
func TestPTRSTableDecidesLikeLog(t *testing.T) {
	var subnormal, zero, outside int
	for _, mu := range []float64{ptrsMin, 1e3, cov120Share} {
		c := newPTRS(mu)
		s := NewSkellamSampler(mu)
		for k := math.Max(0, s.tab.lo-3); k < s.tab.lo+tableSize+3; k++ {
			tk := math.Exp(c.logPMF(k))
			switch {
			case k < s.tab.lo || k >= s.tab.lo+tableSize:
				outside++
			case tk == 0:
				zero++
			case tk < 0x1p-1022:
				subnormal++
			}
			for _, l := range []float64{
				tk, math.Nextafter(tk, 0), math.Nextafter(tk, 1),
				tk * (1 - 2*tableBand), tk * (1 + 2*tableBand),
				0, 0x1p-1074, 1,
			} {
				want := math.Log(l) <= c.logPMF(k)
				if got := s.tab.accepts(&c, k, l); got != want {
					t.Fatalf("mu=%g k=%g T=%g L=%g: table decides %v, log test %v", mu, k, tk, l, got, want)
				}
				if got := (*acceptTable)(nil).accepts(&c, k, l); got != want {
					t.Fatalf("mu=%g k=%g L=%g: nil table decides %v, log test %v", mu, k, l, got, want)
				}
			}
		}
	}
	if subnormal == 0 || zero == 0 || outside == 0 {
		t.Fatalf("windows reach %d subnormal, %d zero entries and %d k outside; want each", subnormal, zero, outside)
	}
}

// TestAddSkellamAllocatesNothing: a sampler's acceptance table lives on
// its builder's stack, and SkellamVec allocates only the vector it
// returns.
func TestAddSkellamAllocatesNothing(t *testing.T) {
	g := New(3)
	for _, n := range []int{40, 7260} {
		dst := make([]int64, n)
		if a := testing.AllocsPerRun(5, func() { skellamSink = g.SkellamVec(n, cov120Share) }); a != 1 {
			t.Errorf("SkellamVec over %d entries: %v allocations, want the vector's 1", n, a)
		}
		if a := testing.AllocsPerRun(5, func() {
			s := NewSkellamSampler(cov120Share)
			s.Add(g, dst)
			s.Add(g, dst)
		}); a != 0 {
			t.Errorf("SkellamSampler.Add over %d entries: %v allocations", n, a)
		}
	}
}

// TestFloat64MatchesPCG: New's RNG reads its in-place PCG directly, and
// must give the bits rand.Rand.Float64 and rand.Rand.Uint64 give over
// the same source, interleaved.
func TestFloat64MatchesPCG(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		g := New(seed * 0x9e3779b97f4a7c15)
		ref := rand.New(rand.NewPCG(seed*0x9e3779b97f4a7c15, seed*0x9e3779b97f4a7c15^0x9e3779b97f4a7c15))
		for i := 0; i < 50; i++ {
			if a, b := g.Float64(), ref.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d draw %d: Float64 %v, rand.Rand over PCG %v", seed, i, a, b)
			}
			if a, b := g.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %d, rand.Rand over PCG %d", seed, i, a, b)
			}
		}
	}
}

func TestStochasticRoundUnbiased(t *testing.T) {
	g := New(31)
	for _, v := range []float64{0.25, -1.7, 3.0, 1234.5, -0.001} {
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(g.StochasticRound(v))
		}
		mean := sum / n
		if math.Abs(mean-v) > 0.01 {
			t.Errorf("E[round(%v)] = %v", v, mean)
		}
	}
}

func TestStochasticRoundRange(t *testing.T) {
	g := New(37)
	for i := 0; i < 10000; i++ {
		v := (g.Float64() - 0.5) * 100
		r := g.StochasticRound(v)
		if float64(r) < math.Floor(v) || float64(r) > math.Ceil(v) {
			t.Fatalf("round(%v) = %d escapes its unit interval", v, r)
		}
	}
}

func TestStochasticRoundIntegerIsExact(t *testing.T) {
	g := New(41)
	for _, v := range []float64{-5, 0, 7, 123456} {
		for i := 0; i < 50; i++ {
			if got := g.StochasticRound(v); got != int64(v) {
				t.Fatalf("round(%v) = %d", v, got)
			}
		}
	}
}

func TestBernoulliSubsetRate(t *testing.T) {
	g := New(43)
	const m = 100000
	idx := g.BernoulliSubset(m, 0.01)
	if len(idx) < 800 || len(idx) > 1200 {
		t.Fatalf("subset size = %d, want ~1000", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("indices must be strictly increasing")
		}
	}
	if idx[len(idx)-1] >= m {
		t.Fatal("index out of range")
	}
}

func TestBernoulliSubsetExtremes(t *testing.T) {
	g := New(47)
	if got := g.BernoulliSubset(100, 0); got != nil {
		t.Fatalf("q=0 should give empty subset, got %v", got)
	}
	if got := g.BernoulliSubset(100, 1); len(got) != 100 {
		t.Fatalf("q=1 should give all indices, got %d", len(got))
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(53).Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		g.Poisson(5)
	}
}

func BenchmarkPoissonPTRS(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		g.Poisson(1e6)
	}
}

func BenchmarkSkellamLarge(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		g.Skellam(1e12)
	}
}

// skellamSink keeps BenchmarkSkellamVecPTRS's output live.
var skellamSink []int64

// cov120Share is one client's Skellam share on the cov_mono workload:
// μ = 1.613 08e6 split over its n = 120 clients.
const cov120Share = 1.61308e6 / 120

// BenchmarkSkellamVecPTRS draws one client's noise share of the cov_mono
// workload onto its party's vector: n(n+1)/2 entries at n = 120, each
// Sk(μ/n). ns/op ÷ 7260 is the per-entry cost.
func BenchmarkSkellamVecPTRS(b *testing.B) {
	g := New(1)
	skellamSink = make([]int64, 7260)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSkellamSampler(cov120Share)
		s.Add(g, skellamSink)
	}
}

// BenchmarkSkellamSamplerShared draws a whole cov_mono release's noise
// through one sampler on one core, as release.sampleNoise does at
// GOMAXPROCS=1: its 120 clients' streams drawing their 7 260 shares each
// onto one vector. ns/op ÷ (120 · 7260) is the per-entry cost; core's
// BenchmarkSampleNoise is the release split across the cores.
func BenchmarkSkellamSamplerShared(b *testing.B) {
	streams := make([]*RNG, 120)
	for j := range streams {
		streams[j] = New(uint64(j))
	}
	skellamSink = make([]int64, 7260)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSkellamSampler(cov120Share)
		for _, g := range streams {
			s.Add(g, skellamSink)
		}
	}
}

// skellamPMF returns P(X − Y = d) for independent X, Y ~ Poisson(lambda),
// summed term by term from the two Poisson mass functions — the
// Poisson-difference construction itself, sharing no code with the
// samplers under test.
func skellamPMF(lambda float64, d int) float64 {
	logPois := func(k int) float64 {
		lg, _ := math.Lgamma(float64(k) + 1)
		return float64(k)*math.Log(lambda) - lambda - lg
	}
	span := 12*math.Sqrt(lambda) + 12
	var p float64
	for j := int(math.Max(0, lambda-span)); j <= int(lambda+span); j++ {
		if j+d >= 0 {
			p += math.Exp(logPois(j) + logPois(j+d))
		}
	}
	return p
}

// checkSkellam holds samples to Skellam(lambda): mean 0 and variance 2λ
// within six standard errors, and a χ² over every value within 1.5σ of
// the centre plus the two tails within six standard deviations of its
// degrees of freedom.
func checkSkellam(t *testing.T, what string, samples []int64, lambda float64) {
	t.Helper()
	n := float64(len(samples))
	sigma2 := 2 * lambda
	c := int(math.Ceil(1.5 * math.Sqrt(sigma2)))
	counts := make([]float64, 2*c+3) // [0] left tail, [1..2c+1] values −c..c, [2c+2] right tail
	var sum, sumsq float64
	for _, s := range samples {
		x := float64(s)
		sum += x
		sumsq += x * x
		bin := int(s) + c + 1
		if bin < 1 {
			bin = 0
		} else if bin > 2*c+1 {
			bin = 2*c + 2
		}
		counts[bin]++
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 6*math.Sqrt(sigma2/n) {
		t.Errorf("%s: mean %v, want 0 for Skellam(%v)", what, mean, lambda)
	}
	// The fourth central moment of Skellam(λ) is 2λ + 3(2λ)².
	if se := math.Sqrt((sigma2 + 2*sigma2*sigma2) / n); math.Abs(variance-sigma2) > 6*se {
		t.Errorf("%s: variance %v, want %v ± %v", what, variance, sigma2, 6*se)
	}
	var chi2, central float64
	for d := -c; d <= c; d++ {
		p := skellamPMF(lambda, d)
		central += p
		e := n * p
		chi2 += (counts[d+c+1] - e) * (counts[d+c+1] - e) / e
	}
	tail := n * (1 - central) / 2
	chi2 += (counts[0]-tail)*(counts[0]-tail)/tail + (counts[2*c+2]-tail)*(counts[2*c+2]-tail)/tail
	dof := float64(2*c + 2)
	if chi2 > dof+6*math.Sqrt(2*dof) {
		t.Errorf("%s: χ² = %.1f over %d bins against Skellam(%v), want about %.0f", what, chi2, 2*c+3, lambda, dof)
	}
}

// TestHostedSkellamSumsAreTheAccountedDistribution: with n clients hosted
// on P parties a party shares the sum of its n/P clients' SkellamVec(·,
// μ/n) vectors, and the circuit opens the sum over all n. The accountant
// priced Skellam(μ); by closure the party's quantity must be
// Skellam(μ·(n/P)/n) and the total Skellam(μ), for per-client means on
// both sides of the inversion / PTRS switch at ptrsMin.
func TestHostedSkellamSumsAreTheAccountedDistribution(t *testing.T) {
	const clients, parties, samples = 12, 4, 40000
	for _, share := range []float64{0.4 * ptrsMin, ptrsMin - 0.5, ptrsMin, ptrsMin + 11} {
		root := New(uint64(1000 * share))
		perParty := make([][]int64, parties)
		for p := range perParty {
			perParty[p] = make([]int64, samples)
		}
		total := make([]int64, samples)
		for j := 0; j < clients; j++ {
			for i, z := range root.Fork().SkellamVec(samples, share) {
				perParty[j%parties][i] += z
				total[i] += z
			}
		}
		for p, sum := range perParty {
			checkSkellam(t, fmt.Sprintf("share %v, party %d's folded input", share, p), sum, share*clients/parties)
		}
		checkSkellam(t, fmt.Sprintf("share %v, opened noise", share), total, share*clients)
	}
}

// TestRewindDrawsAgain: a seeded stream rewound to a Mark draws what it
// drew after the mark, through every draw path; a ChaCha8 stream has no
// mark to take.
func TestRewindDrawsAgain(t *testing.T) {
	g := New(17)
	g.Uint64()
	m := g.Mark()
	draw := func() [4]float64 {
		return [4]float64{float64(g.Uint64()), g.Float64(), float64(g.StochasticRound(2.5)), float64(g.Skellam(40))}
	}
	first := draw()
	g.Rewind(m)
	if again := draw(); again != first {
		t.Fatalf("rewound stream drew %v, first %v", again, first)
	}
	defer func() {
		if _, ok := recover().(*invariant.Error); !ok {
			t.Fatal("marking a ChaCha8 stream did not panic with an invariant.Violation")
		}
	}()
	NewSecure([32]byte{1}).Mark()
}
