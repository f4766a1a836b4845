package dp

import (
	"fmt"
	"math"
	"testing"

	"sqm/internal/invariant"
)

// Tests of the Lemma 11 kernel (amplifier) against the chained-LogAdd
// oracle of dp_test.go, and of the calibrators built on it.

// sameBound reports whether the kernel's bound agrees with the oracle's:
// 1e-12 relative, or 1e-15 absolute where the bound is so close to its
// clamp at 0 that both evaluations are rounding noise of a log-sum near
// log 1. Infinities and NaNs must match in kind.
func sameBound(got, want float64) bool {
	if math.IsNaN(want) || math.IsInf(want, 0) {
		return math.IsNaN(got) == math.IsNaN(want) && math.IsInf(got, 1) == math.IsInf(want, 1)
	}
	diff := math.Abs(got - want)
	return diff <= 1e-12*math.Abs(want) || diff <= 1e-15
}

var (
	kernelRates  = []float64{1e-9, 1e-4, 0.01, 0.05, 0.1, 0.5, 0.9, 0.999}
	kernelScales = []float64{1e-9, 1e-6, 1e-3, 1, 1e3, 1e6, 1e9, 1e12, 1e16, 1e20, 1e30, 1e40}
	// (Δ₁, Δ₂) pairs.
	kernelSens = [][2]float64{{1, 1}, {5e4, 3e3}, {1e8, 1e6}}
)

func TestSubsampledRDPMatchesChainedOracle(t *testing.T) {
	got := make([]float64, DefaultMaxAlpha+1)
	want := make([]float64, DefaultMaxAlpha+1)
	for _, q := range kernelRates {
		for _, mu := range kernelScales {
			for _, d := range kernelSens {
				bases := map[string]Curve{
					"skellam":  func(l int) float64 { return SkellamRDP(l, d[0], d[1], mu) },
					"gaussian": func(l int) float64 { return GaussianRDP(float64(l), d[1], math.Sqrt(2*mu)) },
				}
				for name, base := range bases {
					curve := amplify(q, 1, DefaultMaxAlpha, base, nil)
					for a := 2; a <= DefaultMaxAlpha; a++ {
						got[a] = SubsampledRDP(a, q, base)
						want[a] = subsampledRDPChained(a, q, base)
						if !sameBound(got[a], want[a]) {
							t.Errorf("%s q=%v mu=%v Δ=%v α=%d: kernel %v, oracle %v", name, q, mu, d, a, got[a], want[a])
						}
						// One order of a shared pass is the order on its own.
						if c := curve.at(a); math.Float64bits(c) != math.Float64bits(got[a]) {
							t.Errorf("%s q=%v mu=%v Δ=%v α=%d: shared pass %v, single order %v", name, q, mu, d, a, c, got[a])
						}
					}
					for _, rounds := range []float64{1, 1000} {
						eg, ag := BestEpsilon(func(a int) float64 { return rounds * got[a] }, 1e-5, DefaultMaxAlpha)
						ew, aw := BestEpsilon(func(a int) float64 { return rounds * want[a] }, 1e-5, DefaultMaxAlpha)
						if ag != aw || !sameBound(eg, ew) {
							t.Errorf("%s q=%v mu=%v Δ=%v R=%v: kernel ε=%v at α=%d, oracle ε=%v at α=%d", name, q, mu, d, rounds, eg, ag, ew, aw)
						}
					}
				}
			}
		}
	}
}

func TestSubsampledRDPInfiniteTail(t *testing.T) {
	// τ_l finite below l = 10 and +Inf from there on: every order that
	// reaches the infinite tail is +Inf exactly, every order below is the
	// finite bound of the finite prefix.
	const first = 10
	tau := func(l int) float64 {
		if l >= first {
			return math.Inf(1)
		}
		return 0.1 * float64(l)
	}
	for _, q := range []float64{1e-4, 0.1, 0.9} {
		curve := amplify(q, 1, 32, tau, nil)
		for a := 2; a <= 32; a++ {
			got := SubsampledRDP(a, q, tau)
			if shared := curve.at(a); math.Float64bits(shared) != math.Float64bits(got) {
				t.Fatalf("q=%v α=%d: shared pass %v, single order %v", q, a, shared, got)
			}
			if a >= first {
				if !math.IsInf(got, 1) {
					t.Fatalf("q=%v α=%d: got %v, want +Inf", q, a, got)
				}
				continue
			}
			if want := subsampledRDPChained(a, q, tau); math.IsInf(got, 0) || !sameBound(got, want) {
				t.Fatalf("q=%v α=%d: got %v, want %v", q, a, got, want)
			}
		}
	}
	// The same through the accountants: an infinite tail is skipped by
	// the order search, not propagated.
	if eps, alpha := BestEpsilon(amplify(0.1, 5, 32, tau, nil).at, 1e-5, 32); math.IsInf(eps, 0) || alpha >= first {
		t.Fatalf("BestEpsilon = %v at α=%d, want a finite ε below α=%d", eps, alpha, first)
	}
}

func TestSubsampledRDPHugeTauStaysFinite(t *testing.T) {
	// (l−1)·τ_l far beyond exp's range: the max shift keeps the bound at
	// about τ_α + α/(α−1)·log q.
	tau := func(l int) float64 { return 1e300 }
	got := SubsampledRDP(8, 0.01, tau)
	if math.IsInf(got, 0) || math.IsNaN(got) || math.Abs(got-1e300) > 1e288 {
		t.Fatalf("got %v, want ≈ 1e300", got)
	}
}

func TestSubsampledRDPNaNPropagates(t *testing.T) {
	all := func(int) float64 { return math.NaN() }
	one := func(l int) float64 {
		if l == 5 {
			return math.NaN()
		}
		return 0.01 * float64(l)
	}
	for _, q := range []float64{1e-4, 0.1, 0.9} {
		if got := SubsampledRDP(8, q, all); !math.IsNaN(got) {
			t.Fatalf("q=%v: NaN curve gave %v", q, got)
		}
		if got := SubsampledRDP(8, q, one); !math.IsNaN(got) {
			t.Fatalf("q=%v: NaN at l=5 gave %v at α=8", q, got)
		}
		if got := SubsampledRDP(4, q, one); math.IsNaN(got) {
			t.Fatalf("q=%v: NaN at l=5 reached α=4", q)
		}
	}
	if eps, _ := SkellamEpsilon(1, 1, math.NaN(), 0.1, 10, 1e-5, 32); !math.IsInf(eps, 1) {
		t.Fatalf("NaN μ: ε = %v, want +Inf (no order converts)", eps)
	}
}

func TestSubsampledRDPPanics(t *testing.T) {
	tau := func(l int) float64 { return 0.1 }
	for name, f := range map[string]func(){
		"alpha<2":          func() { SubsampledRDP(1, 0.5, tau) },
		"q<0":              func() { SubsampledRDP(4, -0.1, tau) },
		"q>1":              func() { SubsampledRDP(4, 1.1, tau) },
		"SkellamEps q<0":   func() { SkellamEpsilon(1, 1, 10, -0.1, 1, 1e-5, 32) },
		"GaussianEps q<0":  func() { GaussianEpsilon(1, 1, -0.1, 1, 1e-5, 32) },
		"CalibrateMu q<0":  func() { _, _ = CalibrateSkellamMu(1, 1e-5, 1, 1, -0.1, 1) },
		"AddSubsampledq<0": func() { NewAccountant(32).AddSubsampledSkellam(1, 1, 10, -0.1, 1) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*invariant.Error); !ok {
					t.Errorf("%s: no invariant violation", name)
				}
			}()
			f()
		}()
	}
}

func TestEpsilonRateEdges(t *testing.T) {
	// q = 0 samples nothing (the curve is 0 at every order); q >= 1
	// composes the base curve as it is, whatever the excess.
	empty, _ := BestEpsilon(func(int) float64 { return 0 }, 1e-5, 64)
	if got, _ := SkellamEpsilon(1, 1, 10, 0, 7, 1e-5, 64); got != empty {
		t.Fatalf("q=0: ε = %v, want %v", got, empty)
	}
	full, _ := BestEpsilon(func(a int) float64 { return 7 * SkellamRDP(a, 1, 1, 10) }, 1e-5, 64)
	for _, q := range []float64{1, 1.5} {
		if got, _ := SkellamEpsilon(1, 1, 10, q, 7, 1e-5, 64); got != full {
			t.Fatalf("q=%v: ε = %v, want %v", q, got, full)
		}
	}
	// maxAlpha beyond the default table still evaluates (scratch grows).
	wide, alpha := SkellamEpsilon(1, 1, 1e9, 0.01, 1, 1e-5, 400)
	if alpha <= DefaultMaxAlpha || alpha > 400 || wide <= 0 {
		t.Fatalf("maxAlpha=400: ε = %v at α=%d", wide, alpha)
	}
}

func FuzzSubsampledRDP(f *testing.F) {
	f.Add(0.1, 21.0, 209975.7, 29550.2, 16)
	f.Add(1e-9, -20.0, 1.0, 1.0, 256)
	f.Add(0.999, 90.0, 1e8, 1e6, 255)
	f.Add(0.5, 0.0, 5e4, 3e3, 2)
	f.Fuzz(func(t *testing.T, q, logMu, d1, d2 float64, alpha int) {
		if !(q > 0 && q < 1) || !(logMu >= -25 && logMu <= 95) || !(d1 > 0 && d1 <= 1e12) || !(d2 > 0 && d2 <= 1e12) {
			t.Skip()
		}
		if alpha < 0 {
			alpha = -(alpha + 1)
		}
		alpha = 2 + alpha%(DefaultMaxAlpha-1)
		mu := math.Exp(logMu)
		for name, base := range map[string]Curve{
			"skellam":  func(l int) float64 { return SkellamRDP(l, d1, d2, mu) },
			"gaussian": func(l int) float64 { return GaussianRDP(float64(l), d2, math.Sqrt(2*mu)) },
		} {
			got, want := SubsampledRDP(alpha, q, base), subsampledRDPChained(alpha, q, base)
			if !sameBound(got, want) {
				t.Fatalf("%s q=%v mu=%v Δ=(%v,%v) α=%d: kernel %v, oracle %v", name, q, mu, d1, d2, alpha, got, want)
			}
		}
	})
}

// Oracle accountants: the parent's ε, order by order on the chained loop.

func chainedEpsilon(q float64, rounds int, delta float64, base Curve) float64 {
	eps, _ := BestEpsilon(func(a int) float64 {
		if q >= 1 {
			return float64(rounds) * base(a)
		}
		return float64(rounds) * subsampledRDPChained(a, q, base)
	}, delta, DefaultMaxAlpha)
	return eps
}

func chainedSkellamEpsilon(d1, d2, mu, q float64, rounds int, delta float64) float64 {
	return chainedEpsilon(q, rounds, delta, func(l int) float64 { return SkellamRDP(l, d1, d2, mu) })
}

func chainedGaussianEpsilon(d2, sigma, q float64, rounds int, delta float64) float64 {
	return chainedEpsilon(q, rounds, delta, func(l int) float64 { return GaussianRDP(float64(l), d2, sigma) })
}

// benchmarkLRShapes are the two calibrations benchmark/ runs inside
// every LR session (the bits TestCalibrateSkellamMuPinnedOnBenchmarkLR
// pins) and the q = 1 branch on the first one's sensitivities.
var benchmarkLRShapes = []struct {
	name   string
	d1, d2 float64
	q      float64
	rounds int
}{
	{"lr_chan", math.Float64frombits(0x410981bdf02e2dc4), math.Float64frombits(0x40dcdb8f482f1a02), 0.1, 10},
	{"lr3_tcp", math.Float64frombits(0x41b28e42d4420904), math.Float64frombits(0x419098c33cf0cbe2), 0.05, 20},
	{"q1", math.Float64frombits(0x410981bdf02e2dc4), math.Float64frombits(0x40dcdb8f482f1a02), 1, 1},
}

// skellamContract holds μ as the chained-loop calibrator returned it at
// (ε, δ) = (1, 1e-5), recorded from the commit before the kernel.
var skellamContract = []struct {
	q      float64
	rounds int
	d1, d2 float64
	mu     uint64
}{
	{0.01, 100, 1, 1, 0x3feb68cc3275a254},
	{0.01, 100, 5e4, 3e3, 0x4154aac08b519e88},
	{0.01, 100, 1e8, 1e6, 0x4261850697ef0937},
	{0.001, 1000, 1, 1, 0x3fdf3fbfed83b0b9},
	{0.001, 1000, 5e4, 3e3, 0x4149138ec822b8ec},
	{0.001, 1000, 1e8, 1e6, 0x425541ecfd321b85},
	{0.5, 2, 1, 1, 0x401a2fcc554eac50},
	{0.5, 2, 5e4, 3e3, 0x4189b678b2c16593},
	{0.5, 2, 1e8, 1e6, 0x4295cc07b89d726b},
}

// gaussianContract is the same record for CalibrateGaussianSigma at
// δ = 1e-5.
var gaussianContract = []struct {
	eps, d2, q float64
	rounds     int
	sigma      uint64
}{
	{1, 0.75, 0.1, 10, 0x3ff7122c7f921e87},
	{1, 1, 0.01, 1000, 0x3ff835bf95b4030f},
	{0.5, 1, 1, 1, 0x401eab627706d56e},
}

func TestCalibrateSkellamMuContract(t *testing.T) {
	const target, delta = 1.0, 1e-5
	check := func(name string, d1, d2, q float64, rounds int, parent float64) {
		t.Helper()
		mu, err := CalibrateSkellamMu(target, delta, d1, d2, q, rounds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if parent > 0 && math.Abs(mu-parent) > 1e-12*parent {
			t.Errorf("%s: μ = %v, the chained loop calibrated %v", name, mu, parent)
		}
		// Safe direction, judged by the oracle: μ meets the target and
		// a thousandth less noise does not.
		if eps := chainedSkellamEpsilon(d1, d2, mu, q, rounds, delta); eps > target*(1+1e-12) {
			t.Errorf("%s: oracle ε(μ) = %v exceeds the target", name, eps)
		}
		if eps := chainedSkellamEpsilon(d1, d2, 0.999*mu, q, rounds, delta); eps <= target {
			t.Errorf("%s: oracle ε(0.999μ) = %v still meets the target: μ is not minimal", name, eps)
		}
		// The early exit changes no decision: bisecting the full minimum
		// over orders lands on the same bits.
		full, err := CalibrateNoise(target, func(s float64) float64 {
			eps, _ := SkellamEpsilon(d1, d2, s, q, rounds, delta, DefaultMaxAlpha)
			return eps
		}, 1e-9, 1e40)
		if err != nil || math.Float64bits(full) != math.Float64bits(mu) {
			t.Errorf("%s: early exit μ = %#x, full minimum μ = %#x (err %v)", name, math.Float64bits(mu), math.Float64bits(full), err)
		}
	}
	for _, tc := range skellamContract {
		name := fmt.Sprintf("q=%v R=%d Δ=(%v,%v)", tc.q, tc.rounds, tc.d1, tc.d2)
		check(name, tc.d1, tc.d2, tc.q, tc.rounds, math.Float64frombits(tc.mu))
	}
	for _, tc := range benchmarkLRShapes {
		check(tc.name, tc.d1, tc.d2, tc.q, tc.rounds, 0)
	}
}

func TestCalibrateGaussianSigmaContract(t *testing.T) {
	const delta = 1e-5
	for _, tc := range gaussianContract {
		name := fmt.Sprintf("ε=%v Δ₂=%v q=%v R=%d", tc.eps, tc.d2, tc.q, tc.rounds)
		sigma, err := CalibrateGaussianSigma(tc.eps, delta, tc.d2, tc.q, tc.rounds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if parent := math.Float64frombits(tc.sigma); math.Abs(sigma-parent) > 1e-12*parent {
			t.Errorf("%s: σ = %v, the chained loop calibrated %v", name, sigma, parent)
		}
		if eps := chainedGaussianEpsilon(tc.d2, sigma, tc.q, tc.rounds, delta); eps > tc.eps*(1+1e-12) {
			t.Errorf("%s: oracle ε(σ) = %v exceeds the target", name, eps)
		}
		if eps := chainedGaussianEpsilon(tc.d2, 0.999*sigma, tc.q, tc.rounds, delta); eps <= tc.eps {
			t.Errorf("%s: oracle ε(0.999σ) = %v still meets the target: σ is not minimal", name, eps)
		}
		full, err := CalibrateNoise(tc.eps, func(s float64) float64 {
			eps, _ := GaussianEpsilon(tc.d2, s, tc.q, tc.rounds, delta, DefaultMaxAlpha)
			return eps
		}, 1e-9, 1e30)
		if err != nil || math.Float64bits(full) != math.Float64bits(sigma) {
			t.Errorf("%s: early exit σ = %#x, full minimum σ = %#x (err %v)", name, math.Float64bits(sigma), math.Float64bits(full), err)
		}
	}
}

// fullMinimumMu and fullMinimumSigma are the calibrators by definition:
// bisect the minimum of ε over all orders, every order evaluated in full
// at every probe.
func fullMinimumMu(eps, delta, d1, d2, q float64, rounds int) (float64, error) {
	return CalibrateNoise(eps, func(s float64) float64 {
		e, _ := SkellamEpsilon(d1, d2, s, q, rounds, delta, DefaultMaxAlpha)
		return e
	}, 1e-9, 1e40)
}

func fullMinimumSigma(eps, delta, d2, q float64, rounds int) (float64, error) {
	return CalibrateNoise(eps, func(s float64) float64 {
		e, _ := GaussianEpsilon(d2, s, q, rounds, delta, DefaultMaxAlpha)
		return e
	}, 1e-9, 1e30)
}

// sameCalibration reports whether a calibrator and its definition agree:
// the same bits and the same error.
func sameCalibration(got float64, gotErr error, want float64, wantErr error) bool {
	return gotErr == wantErr && math.Float64bits(got) == math.Float64bits(want)
}

// matchFullMinimum holds CalibrateSkellamMu at (Δ₁, Δ₂) = (d1, d2) and
// CalibrateGaussianSigma at Δ₂ = gaussD2 to their definitions.
func matchFullMinimum(t testing.TB, eps, delta, d1, d2, gaussD2, q float64, rounds int) {
	t.Helper()
	mu, err := CalibrateSkellamMu(eps, delta, d1, d2, q, rounds)
	full, fullErr := fullMinimumMu(eps, delta, d1, d2, q, rounds)
	if !sameCalibration(mu, err, full, fullErr) {
		t.Errorf("skellam ε=%v δ=%v Δ=(%v,%v) q=%v R=%d: μ = %v (%#x, err %v), full minimum μ = %v (%#x, err %v)",
			eps, delta, d1, d2, q, rounds, mu, math.Float64bits(mu), err, full, math.Float64bits(full), fullErr)
	}
	sigma, err := CalibrateGaussianSigma(eps, delta, gaussD2, q, rounds)
	full, fullErr = fullMinimumSigma(eps, delta, gaussD2, q, rounds)
	if !sameCalibration(sigma, err, full, fullErr) {
		t.Errorf("gaussian ε=%v δ=%v Δ₂=%v q=%v R=%d: σ = %v (%#x, err %v), full minimum σ = %v (%#x, err %v)",
			eps, delta, gaussD2, q, rounds, sigma, math.Float64bits(sigma), err, full, math.Float64bits(full), fullErr)
	}
}

// TestCalibrateMatchesFullMinimumOnGrid holds the live interval and the
// one-term rejection to the definition's bits, error status included,
// over targets, rates and round counts around the ones the trainers use.
// Every grid point calibrates σ and one μ, the three sensitivities taking
// turns, which keeps the definition's 62 × 255 full orders per point
// within a few seconds.
func TestCalibrateMatchesFullMinimumOnGrid(t *testing.T) {
	// (Δ₁, Δ₂): the two benchmark shapes and core.LRSensitivity(1, 50).
	g1 := math.Sqrt(0.75*0.75 + 9*50 + 36)
	sens := [][2]float64{
		{benchmarkLRShapes[0].d1, benchmarkLRShapes[0].d2},
		{benchmarkLRShapes[1].d1, benchmarkLRShapes[1].d2},
		{math.Sqrt(50) * g1, g1},
	}
	point := 0
	for _, eps := range []float64{0.1, 1, 8} {
		for _, delta := range []float64{1e-5, 1e-8} {
			for _, q := range []float64{1e-3, 0.05, 0.1, 0.9, 1} {
				for _, rounds := range []int{1, 10, 20, 1000} {
					d := sens[point%len(sens)]
					matchFullMinimum(t, eps, delta, d[0], d[1], 0.75, q, rounds)
					point++
				}
			}
		}
	}
	// Below every order's conversion constant: ErrCalibration from the
	// calibrators, and so from the definitions.
	for _, q := range []float64{0.1, 1} {
		matchFullMinimum(t, 1e-6, 1e-5, sens[0][0], sens[0][1], 0.75, q, 10)
		_, muErr := CalibrateSkellamMu(1e-6, 1e-5, sens[0][0], sens[0][1], q, 10)
		_, sigmaErr := CalibrateGaussianSigma(1e-6, 1e-5, 0.75, q, 10)
		if muErr != ErrCalibration || sigmaErr != ErrCalibration {
			t.Errorf("q=%v: unreachable target: errs = %v, %v, want ErrCalibration", q, muErr, sigmaErr)
		}
	}
}

// FuzzCalibrateMatchesFullMinimum is the grid's statement on inputs
// nobody chose: both calibrators return the definition's bits and error
// anywhere in their documented domain.
func FuzzCalibrateMatchesFullMinimum(f *testing.F) {
	for _, tc := range skellamContract {
		f.Add(1.0, 1e-5, tc.d1, tc.d2, tc.q, tc.rounds)
	}
	for _, tc := range gaussianContract {
		f.Add(tc.eps, 1e-5, tc.d2, tc.d2, tc.q, tc.rounds)
	}
	for _, tc := range benchmarkLRShapes {
		f.Add(1.0, 1e-5, tc.d1, tc.d2, tc.q, tc.rounds)
	}
	f.Add(1e-6, 1e-5, 1.0, 1.0, 0.1, 10) // unreachable
	f.Fuzz(func(t *testing.T, eps, delta, d1, d2, q float64, rounds int) {
		if !(eps >= 1e-6 && eps <= 100) || !(delta >= 1e-12 && delta <= 0.5) ||
			!(d1 > 0 && d1 <= 1e12) || !(d2 > 0 && d2 <= 1e12) || !(q >= 0 && q <= 1) {
			t.Skip()
		}
		if rounds < 0 {
			rounds = -(rounds + 1)
		}
		matchFullMinimum(t, eps, delta, d1, d2, d2, q, 1+rounds%10000)
	})
}

func TestCalibrateUnreachableTarget(t *testing.T) {
	// ε below the δ-conversion floor of every order: no μ in the bracket.
	if _, err := CalibrateSkellamMu(1e-6, 1e-5, 1, 1, 0.1, 10); err != ErrCalibration {
		t.Fatalf("err = %v, want ErrCalibration", err)
	}
}

func TestCalibrateSkellamMuDoesNotAllocate(t *testing.T) {
	// The kernel's scratch is one stack array per calibration, handed to
	// all of its probes.
	for _, tc := range benchmarkLRShapes {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := CalibrateSkellamMu(1, 1e-5, tc.d1, tc.d2, tc.q, tc.rounds); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per calibration", tc.name, allocs)
		}
	}
}

func BenchmarkCalibrateSkellamMu(b *testing.B) {
	for _, tc := range benchmarkLRShapes {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CalibrateSkellamMu(1, 1e-5, tc.d1, tc.d2, tc.q, tc.rounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
