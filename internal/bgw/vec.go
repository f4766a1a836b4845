package bgw

import (
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/shamir"
)

// SharedVec is a vector of secret-shared values stored party-major:
// shares[i][k] is party i's share of element k, so the hot loops of the
// Gram-matrix and gradient protocols run the batch kernels over whole
// rows.
type SharedVec struct {
	eng    *Engine
	shares [][]field.Elem // [party][element]
}

// Len returns the number of shared elements.
func (v *SharedVec) Len() int { return len(v.shares[0]) }

// InputVec has party owner secret-share the signed vector vs. One
// batched frame per receiving party is metered, carrying one logical
// message per element.
func (e *Engine) InputVec(owner int, vs []int64) *SharedVec {
	e.checkParty(owner)
	out := e.zeroVec(len(vs))
	buf := e.sh.elems((e.t + 1) * len(vs))
	secrets := buf[:len(vs)]
	for k, v := range vs {
		secrets[k] = field.FromInt64(v)
	}
	shamir.ShareVec(out.shares, secrets, e.t, e.rngs[owner], buf[len(vs):])
	e.stats.Frames += int64(e.p - 1)
	e.stats.Messages += int64(len(vs) * (e.p - 1))
	e.stats.Bytes += 8 * int64(len(vs)*(e.p-1))
	e.stats.FieldOps += int64(len(vs) * e.p * (e.t + 1))
	return out
}

// At extracts element k as a scalar Shared (copies P field elements).
func (v *SharedVec) At(k int) *Shared {
	sh := make([]field.Elem, len(v.shares))
	for i := range sh {
		sh[i] = v.shares[i][k]
	}
	return &Shared{eng: v.eng, shares: sh}
}

// AddVec returns the element-wise sum a + b; purely local.
func (e *Engine) AddVec(a, b *SharedVec) *SharedVec {
	e.checkSameVec(a, b)
	out := e.zeroVec(a.Len())
	for i := 0; i < e.p; i++ {
		field.AddVec(out.shares[i], a.shares[i], b.shares[i])
	}
	return out
}

// Dot returns a sharing of the inner product ⟨a, b⟩ with the fused
// inner-product gate (one resharing regardless of length).
func (e *Engine) Dot(a, b *SharedVec) *Shared {
	e.checkSameVec(a, b)
	acc := make([]field.Elem, e.p)
	for i := 0; i < e.p; i++ {
		acc[i] = field.DotAcc(0, a.shares[i], b.shares[i])
	}
	e.stats.FieldOps += int64(e.p * a.Len())
	return e.reshare(acc)
}

// OpenVec reveals every element; metered as one batched opening.
func (e *Engine) OpenVec(v *SharedVec) []int64 {
	e.checkVec(v)
	n := v.Len()
	out := make([]int64, n)
	sh := make([]field.Elem, e.p)
	for k := 0; k < n; k++ {
		for i := 0; i < e.p; i++ {
			sh[i] = v.shares[i][k]
		}
		out[k] = field.ToInt64(shamir.ReconstructWithWeights(e.weights, sh))
	}
	e.stats.Frames += int64(e.p * (e.p - 1))
	e.stats.Messages += int64(n * e.p * (e.p - 1))
	e.stats.Bytes += 8 * int64(n*e.p*(e.p-1))
	e.stats.FieldOps += int64(e.p * n)
	return out
}

// FromScalars packs scalar shares into a vector (no communication).
func (e *Engine) FromScalars(xs []*Shared) *SharedVec {
	out := e.zeroVec(len(xs))
	for k, x := range xs {
		if x.eng != e {
			panic(invariant.Violation("bgw: foreign share"))
		}
		for i := 0; i < e.p; i++ {
			out.shares[i][k] = x.shares[i]
		}
	}
	return out
}

func (e *Engine) zeroVec(n int) *SharedVec {
	out := &SharedVec{eng: e, shares: make([][]field.Elem, e.p)}
	for i := range out.shares {
		out.shares[i] = make([]field.Elem, n)
	}
	return out
}

func (e *Engine) checkVec(a *SharedVec) {
	if a.eng != e {
		panic(invariant.Violation("bgw: vector from a different engine"))
	}
}

func (e *Engine) checkSameVec(a, b *SharedVec) {
	e.checkVec(a)
	e.checkVec(b)
	if a.Len() != b.Len() {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
}
