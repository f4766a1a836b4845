package dp

import (
	"math"
	"testing"
)

// Tests of calibrate's two devices — the live interval of orders and the
// one-term rejection (amplifier.floor) — on base curves built to catch
// them lying, against the scan they replaced.

// calibrateFullScan is calibrate as it was before the live interval: a
// probe tries the order that satisfied the last one and then every order
// 2..DefaultMaxAlpha, each evaluated in full. Kept as the oracle, as the
// chained loop was.
func calibrateFullScan(targetEps, delta, q float64, rounds int, baseAt func(scale float64, l int) float64, lo, hi float64) (float64, error) {
	var scratch [2 * (DefaultMaxAlpha + 1)]float64
	witness := 2
	return bisectScale(func(scale float64) bool {
		amp := amplify(q, rounds, DefaultMaxAlpha, func(l int) float64 { return baseAt(scale, l) }, scratch[:])
		meets := func(a int) bool { return RDPToDP(a, amp.at(a), delta) <= targetEps }
		if meets(witness) {
			return true
		}
		for a := 2; a <= DefaultMaxAlpha; a++ {
			if a != witness && meets(a) {
				witness = a
				return true
			}
		}
		return false
	}, lo, hi)
}

func TestCalibrateDevicesAgainstFullScan(t *testing.T) {
	const delta = 1e-5
	inf, nan := math.Inf(1), math.NaN()
	gauss := func(s float64, l int) float64 { return GaussianRDP(float64(l), 1, s) }
	skellam := func(s float64, l int) float64 { return SkellamRDP(l, 5e4, 3e3, s) }
	// infFrom is base with τ_l = +Inf from order `first` on, nanAt with a
	// NaN at one order, only with every order but the listed ones +Inf.
	infFrom := func(base func(float64, int) float64, first int) func(float64, int) float64 {
		return func(s float64, l int) float64 {
			if l >= first {
				return inf
			}
			return base(s, l)
		}
	}
	nanAt := func(base func(float64, int) float64, at int) func(float64, int) float64 {
		return func(s float64, l int) float64 {
			if l == at {
				return nan
			}
			return base(s, l)
		}
	}
	only := func(base func(float64, int) float64, orders ...int) func(float64, int) float64 {
		return func(s float64, l int) float64 {
			for _, o := range orders {
				if l == o {
					return base(s, l)
				}
			}
			return inf
		}
	}
	for _, tc := range []struct {
		name   string
		eps, q float64
		rounds int
		base   func(scale float64, l int) float64
		lo, hi float64
		// monotone is the precondition: every order's curve is
		// non-increasing in the scale, so the bits must be the oracle's.
		monotone bool
	}{
		{"inf tail from l=40", 1, 0.1, 10, infFrom(gauss, 40), 1e-9, 1e30, true},
		{"inf tail from l=40 cuts the best order off", 0.05, 0.01, 1, infFrom(gauss, 40), 1e-9, 1e30, true},
		{"inf tail from l=40, q=1", 1, 1, 3, infFrom(skellam, 40), 1e-9, 1e40, true},
		// Under subsampling a NaN τ_l poisons every order >= l; at q = 1
		// it is one hole inside the interval.
		{"NaN at l=15", 1, 0.1, 10, nanAt(gauss, 15), 1e-9, 1e30, true},
		{"NaN at l=15, q=1", 1, 1, 4, nanAt(gauss, 15), 1e-9, 1e30, true},
		{"NaN everywhere", 1, 0.1, 10, func(float64, int) float64 { return nan }, 1e-9, 1e30, true},
		// At q → 1 the l = α term is nearly the whole sum: the floor sits
		// just under the bound it must not exceed.
		{"floor nearly tight", 1, 0.999, 5, gauss, 1e-9, 1e30, true},
		{"floor nearly tight, skellam", 0.3, 0.99, 40, skellam, 1e-9, 1e40, true},
		// No e slice on either of these: floor must not index it.
		{"q=1", 1, 1, 1, skellam, 1e-9, 1e40, true},
		{"q=1 composed", 0.5, 1, 50, gauss, 1e-9, 1e30, true},
		{"q=0 met at the bracket's foot", 1, 0, 10, gauss, 1e-9, 1e30, true},
		{"q=0 unreachable", 1e-6, 0, 10, gauss, 1e-9, 1e30, true},
		{"unreachable", 1e-6, 0.1, 10, skellam, 1e-9, 1e40, true},
		// Orders 8 and 40 alone are finite; 40 meets ε = 2 down to a
		// scale where 8 no longer does — and 8 is the order the scan finds
		// first: the interval's foot fails at a satisfied probe and the
		// only order left that meets is its other end.
		{"best order jumps 8 -> 40", 2, 1, 1, only(func(s float64, l int) float64 {
			if l == 8 {
				return 4 * gauss(s, l)
			}
			return gauss(s, l)
		}, 8, 40), 1e-3, 1e6, true},
		{"best order jumps, subsampled", 2, 0.5, 3, only(func(s float64, l int) float64 {
			if l < 20 {
				return 10 * gauss(s, l)
			}
			return gauss(s, l)
		}, 2, 3, 4, 5, 6, 7, 8, 30, 31, 32), 1e-3, 1e6, true},
		// Broken precondition: order 10 meets ε = 1 on [2, 50] only, so it
		// fails at the first satisfied probes, is dropped, and the search
		// settles on order 20's root (≈ 4.07) where the full scan finds
		// order 10's (2).
		{"non-monotone: an order that recovers", 1, 1, 1, func(s float64, l int) float64 {
			switch {
			case l == 10 && s >= 2 && s <= 50:
				return 0.01
			case l == 20:
				return gauss(s, l)
			}
			return inf
		}, 1, 1e6, false},
		{"non-monotone: wavy in the scale", 1, 0.1, 10, func(s float64, l int) float64 {
			return gauss(s, l) * (1 + 0.9*math.Sin(40*math.Log(s)))
		}, 1e-9, 1e30, false},
	} {
		got, gotErr := calibrate(tc.eps, delta, tc.q, tc.rounds, tc.base, tc.lo, tc.hi)
		want, wantErr := calibrateFullScan(tc.eps, delta, tc.q, tc.rounds, tc.base, tc.lo, tc.hi)
		if tc.monotone {
			if !sameCalibration(got, gotErr, want, wantErr) {
				t.Errorf("%s: calibrate = %v (%#x, err %v), full scan = %v (%#x, err %v)",
					tc.name, got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
			}
			continue
		}
		// The safe direction as an executable statement: never less noise
		// than the full scan, and the result carries an order that meets
		// the target when evaluated from scratch.
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: err %v, full scan err %v", tc.name, gotErr, wantErr)
		}
		if got < want {
			t.Errorf("%s: calibrate = %v is below the full scan's %v", tc.name, got, want)
		}
		amp := amplify(tc.q, tc.rounds, DefaultMaxAlpha, func(l int) float64 { return tc.base(got, l) }, nil)
		if eps, alpha := BestEpsilon(amp.at, delta, DefaultMaxAlpha); !(eps <= tc.eps) {
			t.Errorf("%s: ε(%v) = %v at α=%d exceeds the target %v: no witness", tc.name, got, eps, alpha, tc.eps)
		}
		t.Logf("%s: calibrate = %v, full scan = %v", tc.name, got, want)
	}
}

// TestCalibrateWorkOnBenchmarkLR pins what the live interval buys, as a
// count that repeats exactly: base-curve calls per calibration on the two
// shapes benchmark/ calibrates in every LR session (2 037 and 2 687). The
// full scan makes 62 × 255 = 15 810; an interval that stopped shrinking
// would too. What is left is the probes up to the first satisfied one at
// which order 256 fails — 5 on lr_chan, 8 on lr3_tcp, 255 calls each —
// and aHi − 1, soon 12 or 11, for each probe after them.
func TestCalibrateWorkOnBenchmarkLR(t *testing.T) {
	for _, tc := range benchmarkLRShapes[:2] {
		calls := 0
		base := func(mu float64, l int) float64 {
			calls++
			return SkellamRDP(l, tc.d1, tc.d2, mu)
		}
		mu, err := calibrate(1, 1e-5, tc.q, tc.rounds, base, 1e-9, 1e40)
		live := calls
		full, fullErr := calibrateFullScan(1, 1e-5, tc.q, tc.rounds, base, 1e-9, 1e40)
		if err != nil || !sameCalibration(mu, err, full, fullErr) {
			t.Errorf("%s: μ = %#x (err %v), full scan μ = %#x (err %v)", tc.name, math.Float64bits(mu), err, math.Float64bits(full), fullErr)
		}
		if scan := calls - live; scan != 62*(DefaultMaxAlpha-1) {
			t.Errorf("%s: the full scan made %d base-curve calls, want 62 × 255", tc.name, scan)
		}
		if live > 2700 {
			t.Errorf("%s: %d base-curve calls per calibration, want <= 2700", tc.name, live)
		}
		t.Logf("%s: %d base-curve calls", tc.name, live)
	}
}
