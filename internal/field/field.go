// Package field implements arithmetic in the prime field ℤ_p with the
// Mersenne prime p = 2^61 − 1. It is the algebraic substrate for Shamir
// secret sharing and the BGW protocol: every quantized value and Skellam
// noise share in SQM is embedded into this field, so the modulus must
// exceed twice the largest absolute aggregate (checked by callers).
package field

import (
	"math/bits"

	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// Modulus is the field order, the Mersenne prime 2^61 − 1.
const Modulus uint64 = 1<<61 - 1

// Elem is a field element in canonical form (0 <= e < Modulus).
type Elem uint64

// reduce maps any uint64 at most 2*Modulus into canonical form with a
// branchless conditional subtraction: v − Modulus keeps its top bit
// clear exactly when v >= Modulus (v < 2^63), so the borrow bit selects
// the mask. Field elements carry share and noise material, so the
// reduction must not branch on the value (see the ctbranch lint check).
func reduce(v uint64) Elem {
	v -= Modulus & (((v - Modulus) >> 63) - 1)
	return Elem(v)
}

// Add returns a + b mod p.
func Add(a, b Elem) Elem {
	return reduce(uint64(a) + uint64(b))
}

// Sub returns a − b mod p.
func Sub(a, b Elem) Elem {
	return reduce(uint64(a) + Modulus - uint64(b))
}

// Neg returns −a mod p. Modulus − a lands in (0, Modulus] with the
// off-canonical Modulus only at a = 0, which reduce folds to 0 without
// a value-dependent branch.
func Neg(a Elem) Elem {
	return reduce(Modulus - uint64(a))
}

// Mul returns a · b mod p using a Mersenne fold of the 128-bit product:
// with p = 2^61 − 1, 2^64 ≡ 8 and 2^61 ≡ 1 (mod p).
func Mul(a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// product = hi·2^64 + lo ≡ 8·hi + (lo >> 61) + (lo & p).
	s := hi<<3 | lo>>61 // hi < 2^58 so hi<<3 keeps the top bits free
	// v <= 2·Modulus needs two of reduce's branchless conditional
	// subtractions; both operands stay below 2^63, so the borrow-bit
	// mask is exact.
	v := (lo & Modulus) + s
	v -= Modulus & (((v - Modulus) >> 63) - 1)
	v -= Modulus & (((v - Modulus) >> 63) - 1)
	return Elem(v)
}

// Exp returns a^e mod p by square and multiply.
func Exp(a Elem, e uint64) Elem {
	r := Elem(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			r = Mul(r, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return r
}

// Inv returns the multiplicative inverse a^{p−2} mod p; Inv(0) panics.
func Inv(a Elem) Elem {
	if a == 0 {
		panic(invariant.Violation("field: inverse of zero"))
	}
	return Exp(a, Modulus-2)
}

// FromInt64 embeds a signed integer into the field: negative values map
// to p − |v|. The value must satisfy |v| < p/2 so the embedding is
// injective alongside ToInt64; larger magnitudes panic.
func FromInt64(v int64) Elem {
	const half = Modulus / 2
	if v >= 0 {
		if uint64(v) > half {
			panic(invariant.Violation("field: value exceeds signed embedding range"))
		}
		return Elem(v)
	}
	u := uint64(-v)
	if u > half {
		panic(invariant.Violation("field: value exceeds signed embedding range"))
	}
	return Elem(Modulus - u)
}

// ToInt64 inverts FromInt64: elements above p/2 decode as negative.
// Canonical elements sit below 2^61, so bit 60 is set exactly when
// e > p/2 = 2^60 − 1; subtracting Modulus under that mask yields the
// negative two's-complement value without branching on the secret.
func ToInt64(e Elem) int64 {
	return int64(uint64(e) - (Modulus & -(uint64(e) >> 60)))
}

// Rand returns a uniform field element using rejection sampling on
// 61-bit candidates.
func Rand(rng *randx.RNG) Elem {
	for {
		v := rng.Uint64() & Modulus // 61 low bits
		if v < Modulus {
			return Elem(v)
		}
	}
}

// PairMask draws len(dst) uniform elements from stream — the mask stream
// the pair {self, peer} shares — and folds them into dst in place: added
// when self is the smaller index, subtracted when it is the larger. It
// is the one telescoping-mask kernel in the tree (Bonawitz et al.):
// when every member of a group applies it once per peer, from streams
// that agree pairwise, the group's vectors keep their sum while any
// proper subset of them is uniformly masked. The BGW engine's opening
// calls it; it allocates nothing.
func PairMask(dst []Elem, self, peer int, stream *randx.RNG) {
	if self < peer {
		for k := range dst {
			dst[k] = Add(dst[k], Rand(stream))
		}
		return
	}
	for k := range dst {
		dst[k] = Sub(dst[k], Rand(stream))
	}
}

// MaxSignedValue is the largest |v| representable by the signed
// embedding, p/2 (rounded down).
const MaxSignedValue = int64(Modulus / 2)
