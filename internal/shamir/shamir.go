// Package shamir implements Shamir's secret sharing over the field of
// package field: the building block of the BGW protocol (Appendix B of
// the paper). A secret s is hidden as the constant term of a random
// degree-t polynomial; party i receives the evaluation at x = i. Any
// t+1 shares reconstruct s by Lagrange interpolation at 0, while any t
// shares are jointly uniform and carry no information about s.
package shamir

import (
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// Share splits secret into n shares with threshold t (any t+1 shares
// reconstruct; t or fewer reveal nothing). Party i's share is the
// evaluation of the random polynomial at x = i+1.
func Share(secret field.Elem, t, n int, rng *randx.RNG) []field.Elem {
	if t < 0 || n <= t {
		panic(invariant.Violation("shamir: invalid threshold t=%d for n=%d", t, n))
	}
	coefs := make([]field.Elem, t+1)
	coefs[0] = secret
	for i := 1; i <= t; i++ {
		coefs[i] = field.Rand(rng)
	}
	shares := make([]field.Elem, n)
	for i := 0; i < n; i++ {
		shares[i] = evalPoly(coefs, field.Elem(uint64(i+1)))
	}
	return shares
}

// ShareVec shares a whole vector at once, party-major and in place:
// dst[i][k] becomes party i's share of secrets[k] (len(dst) parties,
// every row as long as secrets and none aliasing it; 1 <= t < parties).
// The random coefficients are drawn secret by secret, low order first —
// Share's order — so the shares equal one Share call per secret and rng
// is left in the same state. They are kept coefficient-major in scratch
// (at least t·len(secrets) elements, dead on return), which turns each
// party's row into t Horner steps over the whole vector.
func ShareVec(dst [][]field.Elem, secrets []field.Elem, t int, rng *randx.RNG, scratch []field.Elem) {
	n, m := len(dst), len(secrets)
	if t < 1 || n <= t {
		panic(invariant.Violation("shamir: invalid threshold t=%d for n=%d", t, n))
	}
	if len(scratch) < t*m {
		panic(invariant.Violation("shamir: ShareVec scratch holds %d elements, needs %d", len(scratch), t*m))
	}
	for i, row := range dst {
		if len(row) != m {
			panic(invariant.Violation("shamir: ShareVec row %d has %d elements for %d secrets", i, len(row), m))
		}
	}
	for k := 0; k < m; k++ {
		for j := 0; j < t; j++ {
			scratch[j*m+k] = field.Rand(rng)
		}
	}
	for i, row := range dst {
		x := field.Elem(uint64(i + 1))
		acc := scratch[(t-1)*m : t*m]
		for j := t - 1; j >= 1; j-- {
			field.MulConstAddVec(row, acc, x, scratch[(j-1)*m:j*m])
			acc = row
		}
		field.MulConstAddVec(row, acc, x, secrets)
	}
}

// evalPoly evaluates the polynomial with the given coefficients (low
// order first) at x by Horner's rule.
func evalPoly(coefs []field.Elem, x field.Elem) field.Elem {
	var v field.Elem
	for i := len(coefs) - 1; i >= 0; i-- {
		v = field.Add(field.Mul(v, x), coefs[i])
	}
	return v
}

// LagrangeAtZero returns the interpolation weights λ_i such that
// f(0) = Σ_i λ_i · f(x_i) for any polynomial f of degree < len(xs),
// where xs are distinct non-zero evaluation points.
func LagrangeAtZero(xs []field.Elem) []field.Elem {
	w := make([]field.Elem, len(xs))
	for i, xi := range xs {
		num := field.Elem(1)
		den := field.Elem(1)
		for j, xj := range xs {
			if i == j {
				continue
			}
			num = field.Mul(num, xj)                // (0 - x_j) up to sign
			den = field.Mul(den, field.Sub(xj, xi)) // (x_i - x_j) with matching sign
		}
		w[i] = field.Mul(num, field.Inv(den))
	}
	return w
}

// PartyPoints returns the canonical evaluation points 1..n used by
// Share.
func PartyPoints(n int) []field.Elem {
	xs := make([]field.Elem, n)
	for i := range xs {
		xs[i] = field.Elem(uint64(i + 1))
	}
	return xs
}

// Reconstruct recovers the secret from shares at the given points; it
// needs at least degree+1 points for a degree-d sharing and trusts the
// caller to pass consistent shares (semi-honest model).
func Reconstruct(points, shares []field.Elem) field.Elem {
	if len(points) != len(shares) {
		panic(invariant.Violation("shamir: points/shares length mismatch"))
	}
	w := LagrangeAtZero(points)
	var s field.Elem
	for i, sh := range shares {
		s = field.Add(s, field.Mul(w[i], sh))
	}
	return s
}

// ReconstructWithWeights recovers the secret using precomputed Lagrange
// weights (the hot path in BGW, where the party set never changes).
func ReconstructWithWeights(weights, shares []field.Elem) field.Elem {
	if len(weights) != len(shares) {
		panic(invariant.Violation("shamir: weights/shares length mismatch"))
	}
	var s field.Elem
	for i, sh := range shares {
		s = field.Add(s, field.Mul(weights[i], sh))
	}
	return s
}
