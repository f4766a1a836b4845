package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestLogAddBasic(t *testing.T) {
	got := LogAdd(math.Log(3), math.Log(4))
	if !almostEq(got, math.Log(7), 1e-12) {
		t.Fatalf("LogAdd(log3, log4) = %v, want log 7", got)
	}
}

func TestLogAddWithNegInf(t *testing.T) {
	if got := LogAdd(NegInf, 2.5); got != 2.5 {
		t.Fatalf("LogAdd(-inf, 2.5) = %v", got)
	}
	if got := LogAdd(2.5, NegInf); got != 2.5 {
		t.Fatalf("LogAdd(2.5, -inf) = %v", got)
	}
	if got := LogAdd(NegInf, NegInf); !math.IsInf(got, -1) {
		t.Fatalf("LogAdd(-inf, -inf) = %v", got)
	}
}

func TestLogAddCommutativeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		return almostEq(LogAdd(a, b), LogAdd(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogAddLargeMagnitudes(t *testing.T) {
	// exp(1000) overflows float64, but log-space addition must not.
	got := LogAdd(1000, 1000)
	want := 1000 + math.Log(2)
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("LogAdd(1000,1000) = %v, want %v", got, want)
	}
}

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{0, 0, math.Log(2), math.Log(6), math.Log(24), math.Log(120)}
	for n, w := range want {
		if got := LogFactorial(n); !almostEq(got, w, 1e-12) {
			t.Errorf("LogFactorial(%d) = %v, want %v", n, got, w)
		}
	}
	if !math.IsNaN(LogFactorial(-1)) {
		t.Error("LogFactorial(-1) should be NaN")
	}
}

// TestLogFactorialTableIsLgamma: the table is a cache of math.Lgamma, not
// an approximation of it — every entry and the first values past the
// table equal the direct call bit for bit.
func TestLogFactorialTableIsLgamma(t *testing.T) {
	for n := 0; n <= logFactMax+8; n++ {
		want, _ := math.Lgamma(float64(n) + 1)
		if got := LogFactorial(n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LogFactorial(%d) = %v, Lgamma gives %v", n, got, want)
		}
	}
}

func TestLogBinomialPascalProperty(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) for 1 <= k <= n-1.
	for n := 2; n <= 60; n++ {
		for k := 1; k < n; k++ {
			lhs := LogBinomial(n, k)
			rhs := LogAdd(LogBinomial(n-1, k-1), LogBinomial(n-1, k))
			if !almostEq(lhs, rhs, 1e-10) {
				t.Fatalf("Pascal identity fails at n=%d k=%d: %v vs %v", n, k, lhs, rhs)
			}
		}
	}
}

func TestBisectFindsSqrt2(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(root, math.Sqrt2, 1e-12) {
		t.Fatalf("root = %v, want sqrt 2", root)
	}
}

func TestBisectNoRoot(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 60); err != ErrNoRoot {
		t.Fatalf("err = %v, want ErrNoRoot", err)
	}
}

func TestBisectExactEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r, err := Bisect(f, 0, 1, 10); err != nil || r != 0 {
		t.Fatalf("got (%v, %v), want (0, nil)", r, err)
	}
	if r, err := Bisect(f, -1, 0, 10); err != nil || r != 0 {
		t.Fatalf("got (%v, %v), want (0, nil)", r, err)
	}
}

func TestBisectMonotone(t *testing.T) {
	x, ok := BisectMonotone(func(x float64) bool { return x >= 0.37 }, 0, 1, 60)
	if !ok || !almostEq(x, 0.37, 1e-12) {
		t.Fatalf("got (%v, %v), want (0.37, true)", x, ok)
	}
	if _, ok := BisectMonotone(func(float64) bool { return false }, 0, 1, 60); ok {
		t.Fatal("expected ok=false when pred is never true")
	}
	if x, ok := BisectMonotone(func(float64) bool { return true }, 3, 9, 60); !ok || x != 3 {
		t.Fatalf("got (%v, %v), want (3, true)", x, ok)
	}
}
