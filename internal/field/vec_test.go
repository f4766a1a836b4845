package field

import (
	"math/big"
	"math/rand"
	"testing"
)

// bigMod is the reference modulus for the math/big oracle.
func bigMod() *big.Int { return new(big.Int).SetUint64(Modulus) }

// refBinop folds two vectors through a math/big binary operation mod p.
func refBinop(a, b []Elem, op func(z, x, y *big.Int) *big.Int) []Elem {
	out := make([]Elem, len(a))
	m := bigMod()
	z := new(big.Int)
	for i := range a {
		z = op(z, new(big.Int).SetUint64(uint64(a[i])), new(big.Int).SetUint64(uint64(b[i])))
		z.Mod(z, m)
		out[i] = Elem(z.Uint64())
	}
	return out
}

// refDot computes acc + Σ a[i]·b[i] with math/big.
func refDot(acc Elem, a, b []Elem) Elem {
	m := bigMod()
	s := new(big.Int).SetUint64(uint64(acc))
	for i := range a {
		t := new(big.Int).Mul(new(big.Int).SetUint64(uint64(a[i])), new(big.Int).SetUint64(uint64(b[i])))
		s.Add(s, t)
	}
	s.Mod(s, m)
	return Elem(s.Uint64())
}

// refPairProd computes Σ_j a[2j]·a[2j+1] with math/big.
func refPairProd(a []Elem) Elem {
	var even, odd []Elem
	for i := 1; i < len(a); i += 2 {
		even, odd = append(even, a[i-1]), append(odd, a[i])
	}
	return refDot(0, even, odd)
}

// checkWinograd holds PairProd and DotWinograd over a and b to the
// math/big oracle: the pair products, and the inner product they correct.
func checkWinograd(t *testing.T, a, b []Elem) {
	t.Helper()
	pa, pb := PairProd(a), PairProd(b)
	if want := refPairProd(a); pa != want {
		t.Fatalf("PairProd = %d, want %d (n=%d)", pa, want, len(a))
	}
	if want := refPairProd(b); pb != want {
		t.Fatalf("PairProd = %d, want %d (n=%d)", pb, want, len(b))
	}
	if got, want := DotWinograd(pa, pb, a, b), refDot(0, a, b); got != want {
		t.Fatalf("DotWinograd = %d, want %d (n=%d)", got, want, len(a))
	}
}

// boundaryElems are the values where the branchless reductions are most
// likely to break: zero, one, both sides of p/2 (the signed-embedding
// split) and both sides of the modulus.
var boundaryElems = []Elem{0, 1, 2, Elem(Modulus / 2), Elem(Modulus/2 + 1), Elem(Modulus - 2), Elem(Modulus - 1)}

// randVec draws a canonical vector mixing uniform and boundary values.
func randVec(rng *rand.Rand, n int) []Elem {
	out := make([]Elem, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = boundaryElems[rng.Intn(len(boundaryElems))]
		} else {
			out[i] = Elem(rng.Uint64() % Modulus)
		}
	}
	return out
}

func eqVec(t *testing.T, name string, got, want []Elem) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestVecKernelsMatchBigInt is the quickcheck-style property test:
// every batch kernel must agree with the math/big oracle over random
// vectors laced with modulus-boundary values, including length 0.
func TestVecKernelsMatchBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := trial % 17 // exercises 0-length every 17th trial
		a := randVec(rng, n)
		b := randVec(rng, n)
		c := Elem(rng.Uint64() % Modulus)
		acc := Elem(rng.Uint64() % Modulus)

		dst := make([]Elem, n)
		AddVec(dst, a, b)
		eqVec(t, "AddVec", dst, refBinop(a, b, func(z, x, y *big.Int) *big.Int { return z.Add(x, y) }))

		MulVec(dst, a, b)
		eqVec(t, "MulVec", dst, refBinop(a, b, func(z, x, y *big.Int) *big.Int { return z.Mul(x, y) }))

		cs := make([]Elem, n)
		for i := range cs {
			cs[i] = c
		}
		MulConstVec(dst, a, c)
		eqVec(t, "MulConstVec", dst, refBinop(a, cs, func(z, x, y *big.Int) *big.Int { return z.Mul(x, y) }))

		// MulAddVec: dst starts as b, accumulates c·a.
		copy(dst, b)
		MulAddVec(dst, a, c)
		want := make([]Elem, n)
		for i := range want {
			want[i] = Add(b[i], Mul(c, a[i]))
		}
		eqVec(t, "MulAddVec", dst, want)

		if got, ref := DotAcc(acc, a, b), refDot(acc, a, b); got != ref {
			t.Fatalf("DotAcc = %d, want %d (n=%d)", got, ref, n)
		}
		checkWinograd(t, a, b)
	}
}

// TestDotAccBlockEdges feeds DotAcc the largest products there are,
// at lengths around its block size and with a carried-in accumulator: a
// block sum that outgrows 128 bits, or a fold that keeps too few carry
// bits, shows up here first.
func TestDotAccBlockEdges(t *testing.T) {
	for _, n := range []int{15, 16, 17, 32, 33, 1000} {
		a := make([]Elem, n)
		for i := range a {
			a[i] = Elem(Modulus - 1)
		}
		for _, acc := range []Elem{0, 1, Elem(Modulus - 1)} {
			if got, want := DotAcc(acc, a, a), refDot(acc, a, a); got != want {
				t.Fatalf("DotAcc(%d, all p-1, n=%d) = %d, want %d", acc, n, got, want)
			}
		}
	}
}

// TestDotWinogradBlockEdges does the same for the Winograd pairing, whose
// pair sums reach 2^62 − 4 and whose products are summed eight at a time:
// all-(p−1) vectors at every length through two blocks and a bit, odd and
// even, and at the covariance column length with one element either way.
func TestDotWinogradBlockEdges(t *testing.T) {
	lengths := []int{1000, 1001}
	for n := 0; n <= 35; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		a := make([]Elem, n)
		for i := range a {
			a[i] = Elem(Modulus - 1)
		}
		checkWinograd(t, a, a)
	}
}

// TestVecKernelsMatchScalarHelpers pins the kernels to the scalar
// helpers: bit-identical results element by element, which is what lets
// the BGW engines swap loops for kernels without changing any share.
func TestVecKernelsMatchScalarHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randVec(rng, 257)
	b := randVec(rng, 257)
	c := Elem(rng.Uint64() % Modulus)

	dst := make([]Elem, len(a))
	MulVec(dst, a, b)
	var acc Elem
	for i := range a {
		if want := Mul(a[i], b[i]); dst[i] != want {
			t.Fatalf("MulVec[%d] = %d, want Mul = %d", i, dst[i], want)
		}
		acc = Add(acc, Mul(a[i], b[i]))
	}
	if got := DotAcc(0, a, b); got != acc {
		t.Fatalf("DotAcc = %d, scalar fold = %d", got, acc)
	}
	MulConstVec(dst, a, c)
	for i := range a {
		if want := Mul(c, a[i]); dst[i] != want {
			t.Fatalf("MulConstVec[%d] = %d, want %d", i, dst[i], want)
		}
	}
}

// TestVecKernelsAliasing verifies the documented dst-aliases-operand
// contract (the in-place update shape the engines use).
func TestVecKernelsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randVec(rng, 64)
	b := randVec(rng, 64)
	want := make([]Elem, len(a))
	MulVec(want, a, b)
	got := append([]Elem(nil), a...)
	MulVec(got, got, b)
	eqVec(t, "MulVec aliased", got, want)

	AddVec(want, a, b)
	got = append([]Elem(nil), b...)
	AddVec(got, a, got)
	eqVec(t, "AddVec aliased", got, want)
}

// TestVecKernelsZeroLength pins the no-op contract for empty slices.
func TestVecKernelsZeroLength(t *testing.T) {
	AddVec(nil, nil, nil)
	MulVec(nil, nil, nil)
	MulConstVec(nil, nil, 3)
	MulAddVec(nil, nil, 3)
	if got := DotAcc(17, nil, nil); got != 17 {
		t.Fatalf("DotAcc over empty vectors = %d, want the accumulator back", got)
	}
	if got := PairProd(nil); got != 0 {
		t.Fatalf("PairProd of the empty vector = %d, want 0", got)
	}
	if got := DotWinograd(0, 0, nil, nil); got != 0 {
		t.Fatalf("DotWinograd over empty vectors = %d, want 0", got)
	}
}

// TestVecKernelsLengthMismatchPanics pins the invariant panics.
func TestVecKernelsLengthMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"AddVec":      func() { AddVec(make([]Elem, 2), make([]Elem, 3), make([]Elem, 3)) },
		"MulVec":      func() { MulVec(make([]Elem, 3), make([]Elem, 3), make([]Elem, 2)) },
		"MulConstVec": func() { MulConstVec(make([]Elem, 1), make([]Elem, 2), 1) },
		"MulAddVec":   func() { MulAddVec(make([]Elem, 1), make([]Elem, 2), 1) },
		"DotAcc":      func() { DotAcc(0, make([]Elem, 1), make([]Elem, 2)) },
		"DotWinograd": func() { DotWinograd(0, 0, make([]Elem, 3), make([]Elem, 2)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzFieldVecKernels lets the fuzzer hunt for operand patterns where a
// batch kernel and the math/big oracle disagree. The two seed elements
// are stretched into vectors by deterministic mixing so a single fuzz
// input covers many lanes, including the raw seed values themselves.
func FuzzFieldVecKernels(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), 4)
	f.Add(uint64(Modulus-1), uint64(Modulus-1), uint64(Modulus-1), 9)
	f.Add(uint64(1<<60), uint64(Modulus/2), uint64(3), 1)
	f.Add(uint64(12345), uint64(678910), uint64(42), 0)
	f.Fuzz(func(t *testing.T, sa, sb, sc uint64, n int) {
		if n < 0 || n > 64 {
			return
		}
		a := make([]Elem, n)
		b := make([]Elem, n)
		for i := range a {
			// splitmix-style odd-constant mixing keeps lane values
			// spread over the field while staying reproducible.
			a[i] = Elem((sa + uint64(i)*0x9e3779b97f4a7c15) % Modulus)
			b[i] = Elem((sb + uint64(i)*0xbf58476d1ce4e5b9) % Modulus)
		}
		c := Elem(sc % Modulus)

		dst := make([]Elem, n)
		MulVec(dst, a, b)
		eqVec(t, "MulVec", dst, refBinop(a, b, func(z, x, y *big.Int) *big.Int { return z.Mul(x, y) }))

		AddVec(dst, a, b)
		eqVec(t, "AddVec", dst, refBinop(a, b, func(z, x, y *big.Int) *big.Int { return z.Add(x, y) }))

		copy(dst, b)
		MulAddVec(dst, a, c)
		for i := range dst {
			if want := Add(b[i], Mul(c, a[i])); dst[i] != want {
				t.Fatalf("MulAddVec[%d] = %d, want %d", i, dst[i], want)
			}
		}

		if got, want := DotAcc(c, a, b), refDot(c, a, b); got != want {
			t.Fatalf("DotAcc = %d, want %d", got, want)
		}
		checkWinograd(t, a, b)
	})
}

// dotSink keeps BenchmarkDotAcc1000's result live.
var dotSink Elem

// BenchmarkDotAcc1000 times the fused inner product at the covariance
// sessions' column length (m = 1000 rows).
func BenchmarkDotAcc1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randVec(rng, 1000), randVec(rng, 1000)
	b.ReportAllocs()
	b.SetBytes(8 * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dotSink = DotAcc(dotSink, x, y)
	}
}

// BenchmarkDotWinograd1000 times the Winograd pairing at the same length,
// its two pair products given (a Gram batch computes them once per
// column).
func BenchmarkDotWinograd1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randVec(rng, 1000), randVec(rng, 1000)
	px, py := PairProd(x), PairProd(y)
	b.ReportAllocs()
	b.SetBytes(8 * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dotSink = Add(dotSink, DotWinograd(px, py, x, y))
	}
}
