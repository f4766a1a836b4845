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
// in the element values (a convention no test or check pins: field
// elements carry share and noise material, so control flow depends only
// on public lengths and indices).
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

// pairBlock is how many pair products DotWinograd sums before it reduces.
// A pair sum of canonical elements is below 2^62, so a product of two is
// below 2^124 and 8 of them stay below 2^127.
const pairBlock = 8

// PairProd returns Σ_j a[2j]·a[2j+1] mod p over the len(a)/2 adjacent
// pairs (a trailing odd element is left out): the per-vector correction
// DotWinograd subtracts, computed once for a vector every inner product
// of a batch reuses.
func PairProd(a []Elem) Elem {
	var s Elem
	for i := 1; i < len(a); i += 2 {
		s = Add(s, Mul(a[i-1], a[i]))
	}
	return s
}

// DotWinograd returns Σ_i a[i]·b[i] mod p by Winograd's (1968) pairing,
// given pa = PairProd(a) and pb = PairProd(b):
//
//	Σ_j (a[2j] + b[2j+1])·(a[2j+1] + b[2j]) − pa − pb
//
// plus a[n−1]·b[n−1] when the length n is odd. Each bracket expands to
// a[2j]·b[2j] + a[2j+1]·b[2j+1] plus the two pair products pa and pb
// remove, so the identity holds exactly in the field and the result is
// the element DotAcc(0, a, b) returns, in one multiplication per pair
// instead of two. The pair sums are taken unreduced (below 2^62), and
// the products are summed pairBlock at a time and folded as DotAcc
// folds them.
func DotWinograd(pa, pb Elem, a, b []Elem) Elem {
	if len(a) != len(b) {
		panic(invariant.Violation("field: DotWinograd length mismatch (a %d, b %d)", len(a), len(b)))
	}
	r := Sub(Neg(pa), pb)
	if len(a)&1 == 1 {
		last := len(a) - 1
		r = Add(r, Mul(a[last], b[last]))
		a, b = a[:last], b[:last]
	}
	s := uint64(r)
	for len(a) > 0 {
		n := min(len(a), 2*pairBlock)
		var hi, lo uint64
		aa, bb := a[:n], b[:n]
		for i := 1; i < n; i += 2 {
			h, l := bits.Mul64(uint64(aa[i-1])+uint64(bb[i]), uint64(aa[i])+uint64(bb[i-1]))
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
