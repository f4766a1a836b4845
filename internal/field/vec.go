package field

import (
	"math/bits"

	"sqm/internal/invariant"
)

// Batch kernels. The per-level share arithmetic of the BGW engines —
// pointwise share products, Lagrange folds, fused inner products —
// spends nearly all protocol wall-clock in tight loops over []Elem.
// These kernels are the one sanctioned way to run those loops: the
// Mersenne fold is inlined so the reduction pipelines across iterations
// instead of paying a call per element, and every kernel is branchless
// in the element values (the ctbranch requirement: field elements carry
// share and noise material, so control flow must not depend on them —
// only on public lengths and indices).
//
// Conventions shared by all kernels:
//   - dst may alias a or b (in-place updates are the common case).
//   - Length mismatches are programming errors and panic via
//     invariant.Violation; zero-length inputs are no-ops.
//   - Inputs must be canonical (0 <= e < Modulus), as produced by every
//     constructor in this package; outputs are canonical.

// checkLen2 panics unless a batch kernel's operands agree in length.
func checkLen2(op string, dst, a, b int) {
	if dst != a || dst != b {
		panic(invariant.Violation("field: %s length mismatch (dst %d, a %d, b %d)", op, dst, a, b))
	}
}

// AddVec sets dst[i] = a[i] + b[i] mod p for every element.
func AddVec(dst, a, b []Elem) {
	checkLen2("AddVec", len(dst), len(a), len(b))
	for i := range dst {
		v := uint64(a[i]) + uint64(b[i])
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		dst[i] = Elem(v)
	}
}

// MulVec sets dst[i] = a[i] · b[i] mod p for every element — the
// pointwise share product that opens every multiplicative BGW gate.
func MulVec(dst, a, b []Elem) {
	checkLen2("MulVec", len(dst), len(a), len(b))
	for i := range dst {
		hi, lo := bits.Mul64(uint64(a[i]), uint64(b[i]))
		v := (lo & Modulus) + (hi<<3 | lo>>61)
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		dst[i] = Elem(v)
	}
}

// MulConstVec sets dst[i] = c · a[i] mod p for every element.
func MulConstVec(dst, a []Elem, c Elem) {
	if len(dst) != len(a) {
		panic(invariant.Violation("field: MulConstVec length mismatch (dst %d, a %d)", len(dst), len(a)))
	}
	cu := uint64(c)
	for i := range dst {
		hi, lo := bits.Mul64(uint64(a[i]), cu)
		v := (lo & Modulus) + (hi<<3 | lo>>61)
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		dst[i] = Elem(v)
	}
}

// MulAddVec sets dst[i] += c · a[i] mod p for every element — the axpy
// kernel of the Lagrange fold: resharing and opening both accumulate
// weight-scaled sub-shares into a running vector.
func MulAddVec(dst, a []Elem, c Elem) {
	if len(dst) != len(a) {
		panic(invariant.Violation("field: MulAddVec length mismatch (dst %d, a %d)", len(dst), len(a)))
	}
	cu := uint64(c)
	for i := range dst {
		hi, lo := bits.Mul64(uint64(a[i]), cu)
		v := (lo & Modulus) + (hi<<3 | lo>>61)
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		v += uint64(dst[i])
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		dst[i] = Elem(v)
	}
}

// MulConstAddVec sets dst[i] = c · a[i] + b[i] mod p for every element —
// one Horner step of a polynomial evaluated at c over a whole vector of
// polynomials (shamir.ShareVec). Product halves and addend sum to less
// than 3p, so one more Mersenne fold (2^61 ≡ 1) and a single conditional
// subtraction reach canonical form.
func MulConstAddVec(dst, a []Elem, c Elem, b []Elem) {
	checkLen2("MulConstAddVec", len(dst), len(a), len(b))
	cu := uint64(c)
	for i := range dst {
		hi, lo := bits.Mul64(uint64(a[i]), cu)
		v := (lo & Modulus) + (hi<<3 | lo>>61) + uint64(b[i])
		v = (v & Modulus) + v>>61
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		dst[i] = Elem(v)
	}
}

// dotBlock is how many products DotAcc sums before it reduces. A
// product of canonical elements is below 2^122, so 16 of them plus a
// carried-in canonical sum stay below 2^127 and fit the 128-bit
// accumulator.
const dotBlock = 16

// DotAcc returns acc + Σ_i a[i]·b[i] mod p — the fused inner-product
// kernel. Full 128-bit products are summed dotBlock at a time and folded
// once per block: with the sum hi·2^64 + lo and hi = hh·2^58 + hl,
// 2^122 ≡ 1 and 2^64 ≡ 8 give hh + 8·hl + (lo >> 61) + (lo & p), which
// with the running sum stays below 2^63. The result is the canonical
// element that folding Add(acc, Mul(a[i], b[i])) left to right yields.
func DotAcc(acc Elem, a, b []Elem) Elem {
	if len(a) != len(b) {
		panic(invariant.Violation("field: DotAcc length mismatch (a %d, b %d)", len(a), len(b)))
	}
	s := uint64(acc)
	for len(a) > 0 {
		n := min(len(a), dotBlock)
		var hi, lo uint64
		bb := b[:n]
		for i, x := range a[:n] {
			h, l := bits.Mul64(uint64(x), uint64(bb[i]))
			var carry uint64
			lo, carry = bits.Add64(lo, l, 0)
			hi += h + carry
		}
		a, b = a[n:], b[n:]
		v := (lo & Modulus) + ((hi&(1<<58-1))<<3 | lo>>61) + hi>>58 + s
		v = (v & Modulus) + v>>61
		v -= Modulus & (((v - Modulus) >> 63) - 1)
		s = v
	}
	return Elem(s)
}
