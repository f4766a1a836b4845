package field

import (
	"math/big"
	"testing"
	"testing/quick"

	"sqm/internal/randx"
)

var bigP = new(big.Int).SetUint64(Modulus)

func refMul(a, b Elem) Elem {
	x := new(big.Int).SetUint64(uint64(a))
	y := new(big.Int).SetUint64(uint64(b))
	x.Mul(x, y).Mod(x, bigP)
	return Elem(x.Uint64())
}

func TestModulusIsPrimeMersenne(t *testing.T) {
	if Modulus != (1<<61)-1 {
		t.Fatal("unexpected modulus")
	}
	if !new(big.Int).SetUint64(Modulus).ProbablyPrime(32) {
		t.Fatal("modulus is not prime")
	}
}

func TestAddSubNegBasics(t *testing.T) {
	a, b := Elem(Modulus-1), Elem(5)
	if got := Add(a, b); got != 4 {
		t.Fatalf("Add wraps wrong: %d", got)
	}
	if got := Sub(b, a); got != Elem(6) {
		t.Fatalf("Sub = %d", got)
	}
	if got := Add(a, Neg(a)); got != 0 {
		t.Fatalf("a + (-a) = %d", got)
	}
	if Neg(0) != 0 {
		t.Fatal("Neg(0) != 0")
	}
}

func TestMulAgainstBigInt(t *testing.T) {
	g := randx.New(1)
	for i := 0; i < 2000; i++ {
		a, b := Rand(g), Rand(g)
		if got, want := Mul(a, b), refMul(a, b); got != want {
			t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	// Adversarial corners.
	edge := []Elem{0, 1, 2, Elem(Modulus - 1), Elem(Modulus - 2), Elem(1 << 60)}
	for _, a := range edge {
		for _, b := range edge {
			if got, want := Mul(a, b), refMul(a, b); got != want {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	g := randx.New(2)
	f := func(seed uint64) bool {
		gg := randx.New(seed)
		a, b, c := Rand(gg), Rand(gg), Rand(gg)
		// Commutativity, associativity, distributivity.
		if Add(a, b) != Add(b, a) || Mul(a, b) != Mul(b, a) {
			return false
		}
		if Add(Add(a, b), c) != Add(a, Add(b, c)) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = g
}

func TestInv(t *testing.T) {
	g := randx.New(3)
	for i := 0; i < 200; i++ {
		a := Rand(g)
		if a == 0 {
			continue
		}
		if Mul(a, Inv(a)) != 1 {
			t.Fatalf("a * a^{-1} != 1 for a = %d", a)
		}
	}
	if Inv(1) != 1 {
		t.Fatal("Inv(1) != 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	Inv(0)
}

func TestExp(t *testing.T) {
	if Exp(3, 0) != 1 {
		t.Fatal("a^0 != 1")
	}
	if Exp(3, 4) != 81 {
		t.Fatalf("3^4 = %d", Exp(3, 4))
	}
	// Fermat: a^{p-1} = 1.
	g := randx.New(4)
	for i := 0; i < 20; i++ {
		a := Rand(g)
		if a == 0 {
			continue
		}
		if Exp(a, Modulus-1) != 1 {
			t.Fatalf("Fermat fails for %d", a)
		}
	}
}

func TestSignedEmbeddingRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 42, -42, MaxSignedValue, -MaxSignedValue, 1 << 40, -(1 << 40)}
	for _, v := range vals {
		if got := ToInt64(FromInt64(v)); got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

func TestSignedEmbeddingHomomorphic(t *testing.T) {
	f := func(a, b int32, c, d int16) bool {
		x, y := int64(a), int64(b)
		if ToInt64(Add(FromInt64(x), FromInt64(y))) != x+y {
			return false
		}
		// Keep the product inside the signed embedding range |v| <= p/2.
		u, v := int64(c), int64(d)
		return ToInt64(Mul(FromInt64(u), FromInt64(v))) == u*v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignedEmbeddingOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromInt64(MaxSignedValue + 1)
}

func TestRandUniformity(t *testing.T) {
	// Coarse uniformity: mean of samples ~ p/2.
	g := randx.New(5)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(Rand(g))
	}
	mean := sum / n
	mid := float64(Modulus) / 2
	if mean < 0.97*mid || mean > 1.03*mid {
		t.Fatalf("mean = %v, want ~%v", mean, mid)
	}
}

func BenchmarkMul(b *testing.B) {
	g := randx.New(1)
	x, y := Rand(g), Rand(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	g := randx.New(1)
	x := Rand(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Inv(x + 1)
	}
}

// TestPairMaskTelescopes: when every party of a group folds PairMask into
// its vector once per peer, from streams the two ends of a pair derive
// alike, the masks cancel in the sum and in nothing smaller — the
// property the BGW opening publishes its rows under.
func TestPairMaskTelescopes(t *testing.T) {
	const length = 16
	pairStream := func(i, j int) *randx.RNG {
		if i > j {
			i, j = j, i
		}
		return randx.New(uint64(1000*i + j))
	}
	for _, parties := range []int{2, 3, 5, 10} {
		masked := make([][]Elem, parties)
		for i := range masked {
			masked[i] = make([]Elem, length)
			for j := 0; j < parties; j++ {
				if j != i {
					PairMask(masked[i], i, j, pairStream(i, j))
				}
			}
		}
		sum := func(rows [][]Elem) []Elem {
			acc := make([]Elem, length)
			for _, row := range rows {
				for k, v := range row {
					acc[k] = Add(acc[k], v)
				}
			}
			return acc
		}
		for k, v := range sum(masked) {
			if v != 0 {
				t.Fatalf("P=%d: masks leave residue %d at element %d", parties, v, k)
			}
		}
		residue := false
		for _, v := range sum(masked[1:]) {
			residue = residue || v != 0
		}
		if !residue {
			t.Fatalf("P=%d: the sum without party 0 is unmasked", parties)
		}
	}
	// The convention: the smaller index adds the stream, the larger
	// subtracts it.
	low, high, want := make([]Elem, 1), make([]Elem, 1), Rand(pairStream(0, 1))
	PairMask(low, 0, 1, pairStream(0, 1))
	PairMask(high, 1, 0, pairStream(0, 1))
	if low[0] != want || high[0] != Neg(want) {
		t.Fatalf("PairMask(0,1) = %d, PairMask(1,0) = %d, want %d and its negation", low[0], high[0], want)
	}
}
