// Package mathx provides scalar math helpers shared across the SQM
// implementation: numerically stable log-space arithmetic, log-binomial
// coefficients, and simple root finding. All functions are pure and
// allocation-free.
package mathx

import (
	"errors"
	"math"
)

// NegInf is the log-space representation of zero probability.
var NegInf = math.Inf(-1)

// LogAdd returns log(exp(a) + exp(b)) computed stably.
func LogAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// logFactTable holds log(n!) for n <= logFactMax. The RDP accountant
// reads it ~2 M times per calibration (dp's Lemma 11 kernel forms ~1 M
// log-binomial terms, two look-ups each), all at orders far below the
// table size; every entry is the math.Lgamma value itself, so results
// are bit-identical with or without the table.
const logFactMax = 1024

var logFactTable = func() (t [logFactMax + 1]float64) {
	for n := range t {
		t[n], _ = math.Lgamma(float64(n) + 1)
	}
	return t
}()

// LogFactorial returns log(n!): math.Lgamma(n+1), tabulated for small n.
// The table hit is small enough to inline into its callers; the Lgamma
// fallback (and the NaN for n < 0) is out of line.
func LogFactorial(n int) float64 {
	if uint(n) <= logFactMax {
		return logFactTable[n]
	}
	return logFactorialLgamma(n)
}

func logFactorialLgamma(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	v, _ := math.Lgamma(float64(n) + 1)
	return v
}

// LogBinomial returns log(n choose k). It returns NegInf for k outside
// [0, n].
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return NegInf
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// ErrNoRoot is returned by Bisect when the bracket does not straddle a
// sign change.
var ErrNoRoot = errors.New("mathx: bracket does not contain a sign change")

// Bisect finds x in [lo, hi] with f(x) ~= 0 by bisection, assuming f is
// continuous and f(lo), f(hi) have opposite signs. It runs for iter
// iterations (53 is enough for full float64 resolution of the bracket).
func Bisect(f func(float64) float64, lo, hi float64, iter int) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if EqualWithin(flo, 0, 0) {
		return lo, nil
	}
	if EqualWithin(fhi, 0, 0) {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoRoot
	}
	for i := 0; i < iter; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if EqualWithin(fm, 0, 0) {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// BisectMonotone finds the smallest x in [lo, hi] with pred(x) true,
// assuming pred is monotone (false ... false true ... true). It returns
// hi if pred is false everywhere on the bracket, after verifying
// pred(hi); if pred(hi) is false it returns hi and false.
func BisectMonotone(pred func(float64) bool, lo, hi float64, iter int) (float64, bool) {
	if pred(lo) {
		return lo, true
	}
	if !pred(hi) {
		return hi, false
	}
	for i := 0; i < iter; i++ {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// EqualWithin reports whether a and b differ by at most tol. It is the
// repo's designated floating-point comparison helper, enforced by the
// sqmlint floateq analyzer: a tolerance of 0 asserts exact equality
// explicitly (and still treats equal infinities as equal), while a
// positive tolerance absorbs last-ulp drift from transcendental
// pipelines. NaN compares unequal to everything, matching ==.
func EqualWithin(a, b, tol float64) bool {
	if a == b { //lint:ignore floateq the tolerance helper is the one sanctioned exact-comparison site
		return true
	}
	return math.Abs(a-b) <= tol
}

// Erfc is the complementary error function (re-exported for callers that
// otherwise would not import math directly).
func Erfc(x float64) float64 { return math.Erfc(x) }
