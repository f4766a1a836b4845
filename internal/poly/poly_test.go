package poly

import (
	"math"
	"testing"

	"sqm/internal/quant"
	"sqm/internal/randx"
)

// examplePoly is the running example from §II of the paper:
// f(x) = x[1]^3 + 1.5·x[2]x[3] + 2, degree 3.
func examplePoly(t *testing.T) *Polynomial {
	t.Helper()
	p, err := NewPolynomial(3,
		Monomial{Coef: 1, Exps: []int{3, 0, 0}},
		Monomial{Coef: 1.5, Exps: []int{0, 1, 1}},
		Monomial{Coef: 2, Exps: []int{0, 0, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMonomialDegreeAndEval(t *testing.T) {
	m := Monomial{Coef: 2, Exps: []int{1, 2}}
	if m.Degree() != 3 {
		t.Fatalf("Degree = %d", m.Degree())
	}
	if got := m.Eval([]float64{3, 2}); got != 24 {
		t.Fatalf("Eval = %v", got)
	}
	con := Monomial{Coef: 5, Exps: []int{0, 0}}
	if con.Degree() != 0 || con.Eval([]float64{9, 9}) != 5 {
		t.Fatal("constant monomial")
	}
}

func TestPolynomialPaperExample(t *testing.T) {
	p := examplePoly(t)
	if p.Degree() != 3 {
		t.Fatalf("Degree = %d, want 3 (paper §II)", p.Degree())
	}
	// f(2, 4, 2) = 8 + 1.5*8 + 2 = 22.
	if got := p.Eval([]float64{2, 4, 2}); got != 22 {
		t.Fatalf("Eval = %v, want 22", got)
	}
}

func TestNewPolynomialValidation(t *testing.T) {
	if _, err := NewPolynomial(2, Monomial{Coef: 1, Exps: []int{1}}); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := NewPolynomial(1, Monomial{Coef: 1, Exps: []int{-1}}); err == nil {
		t.Fatal("expected negative exponent error")
	}
}

func TestMultiBasics(t *testing.T) {
	p1 := MustPolynomial(2, Monomial{Coef: 1, Exps: []int{2, 0}})
	p2 := MustPolynomial(2, Monomial{Coef: 1, Exps: []int{0, 1}})
	f := MustMulti(p1, p2)
	if f.NumVars() != 2 || f.OutDim() != 2 || f.Degree() != 2 {
		t.Fatalf("NumVars=%d OutDim=%d Degree=%d", f.NumVars(), f.OutDim(), f.Degree())
	}
	got := f.Eval([]float64{3, 5})
	if got[0] != 9 || got[1] != 5 {
		t.Fatalf("Eval = %v", got)
	}
}

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti(); err == nil {
		t.Fatal("expected error for empty multi")
	}
	p1 := MustPolynomial(2, Monomial{Coef: 1, Exps: []int{1, 0}})
	p2 := MustPolynomial(3, Monomial{Coef: 1, Exps: []int{1, 0, 0}})
	if _, err := NewMulti(p1, p2); err == nil {
		t.Fatal("expected arity mismatch error")
	}
}

func TestEvalSum(t *testing.T) {
	f := MustMulti(MustPolynomial(1, Monomial{Coef: 1, Exps: []int{2}}))
	rows := [][]float64{{1}, {2}, {3}}
	if got := f.EvalSum(rows); got[0] != 14 {
		t.Fatalf("EvalSum = %v, want 14", got)
	}
}

func TestQuantizeScalesCoefficientsByDegreeGap(t *testing.T) {
	// Degree-λ monomial coefficient is scaled by γ, degree-(λ-1) by γ²,
	// etc. (Algorithm 3, lines 1–3).
	g := randx.New(1)
	p := MustPolynomial(1,
		Monomial{Coef: 0.5, Exps: []int{2}}, // degree 2 = λ → × γ
		Monomial{Coef: 1, Exps: []int{1}},   // degree 1 → × γ²
		Monomial{Coef: 2, Exps: []int{0}},   // degree 0 → × γ³
	)
	f := MustMulti(p)
	q, err := f.Quantize(4, g)
	if err != nil {
		t.Fatal(err)
	}
	if q.Lambda != 2 {
		t.Fatalf("Lambda = %d", q.Lambda)
	}
	want := []int64{2, 16, 128} // 0.5*4, 1*16, 2*64: all exact
	for l, w := range want {
		if q.Coefs[0][l] != w {
			t.Fatalf("Coefs = %v, want %v", q.Coefs[0], want)
		}
	}
	if q.Scale() != 64 { // γ^{λ+1} = 4³
		t.Fatalf("Scale = %v", q.Scale())
	}
}

func TestQuantizeRejectsBadGamma(t *testing.T) {
	f := MustMulti(MustPolynomial(1, Monomial{Coef: 1, Exps: []int{1}}))
	if _, err := f.Quantize(0.5, randx.New(1)); err == nil {
		t.Fatal("expected gamma validation error")
	}
}

func TestQuantizeOverflowGuard(t *testing.T) {
	f := MustMulti(MustPolynomial(1,
		Monomial{Coef: 1e30, Exps: []int{0}},
		Monomial{Coef: 1, Exps: []int{3}},
	))
	if _, err := f.Quantize(1024, randx.New(1)); err != ErrOverflow {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

func TestEvalIntMatchesFloatForExactInputs(t *testing.T) {
	// With integer-representable inputs and coefficients the quantized
	// integer evaluation equals γ^{λ+1}·f(x) exactly.
	g := randx.New(2)
	p := MustPolynomial(2,
		Monomial{Coef: 2, Exps: []int{1, 1}},
		Monomial{Coef: 1, Exps: []int{2, 0}},
	)
	f := MustMulti(p)
	gamma := 8.0
	q, err := f.Quantize(gamma, g)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, 0.25}
	xq := quant.Vector(x, gamma, g) // exact: 4, 2
	got, err := q.EvalInt(xq)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Scale() * f.Eval(x)[0] // 8³ · (2·0.125 + 0.25) = 512 · 0.5
	if float64(got[0]) != want {
		t.Fatalf("EvalInt = %v, want %v", got[0], want)
	}
}

func TestEvalIntSum(t *testing.T) {
	g := randx.New(3)
	f := MustMulti(MustPolynomial(1, Monomial{Coef: 1, Exps: []int{2}}))
	q, err := f.Quantize(2, g)
	if err != nil {
		t.Fatal(err)
	}
	x := []int64{2, 4, 6}
	got, err := q.EvalIntSum(len(x), func(int) []int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	// coefficient quantized by γ^{1+λ-λ_l} = γ = 2; Σ 2·x² = 2(4+16+36).
	if got[0] != 112 {
		t.Fatalf("EvalIntSum = %v, want 112", got[0])
	}
}

func TestEvalIntOverflow(t *testing.T) {
	g := randx.New(4)
	f := MustMulti(MustPolynomial(1, Monomial{Coef: 1, Exps: []int{2}}))
	q, err := f.Quantize(1, g)
	if err != nil {
		t.Fatal(err)
	}
	big := int64(1) << 40
	if _, err := q.EvalInt([]int64{big}); err != ErrOverflow {
		// big² = 2^80 overflows.
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

func TestAddCheckOverflow(t *testing.T) {
	if _, err := addCheck(math.MaxInt64, 1); err != ErrOverflow {
		t.Fatal("expected overflow")
	}
	if _, err := addCheck(math.MinInt64, -1); err != ErrOverflow {
		t.Fatal("expected overflow")
	}
	if v, err := addCheck(3, -5); err != nil || v != -2 {
		t.Fatalf("addCheck(3,-5) = %v, %v", v, err)
	}
}

func TestMulCheckOverflow(t *testing.T) {
	if _, err := mulCheck(math.MaxInt64, 2); err != ErrOverflow {
		t.Fatal("expected overflow")
	}
	if v, err := mulCheck(0, math.MaxInt64); err != nil || v != 0 {
		t.Fatalf("mulCheck(0,max) = %v, %v", v, err)
	}
	if v, err := mulCheck(-3, 7); err != nil || v != -21 {
		t.Fatalf("mulCheck(-3,7) = %v, %v", v, err)
	}
}

// The relative quantization error of the whole pipeline vanishes as γ
// grows (Lemma 2 / Corollary 1).
func TestQuantizedEvaluationConvergesToTruth(t *testing.T) {
	g := randx.New(5)
	p := MustPolynomial(2,
		Monomial{Coef: 1.5, Exps: []int{1, 1}},
		Monomial{Coef: -0.7, Exps: []int{2, 0}},
		Monomial{Coef: 0.3, Exps: []int{0, 1}},
	)
	f := MustMulti(p)
	rows := [][]float64{{0.3, -0.4}, {0.1, 0.9}, {-0.5, 0.2}}
	truth := f.EvalSum(rows)[0]
	prevErr := math.Inf(1)
	for _, gamma := range []float64{16, 256, 4096} {
		var worst float64
		for trial := 0; trial < 20; trial++ {
			q, err := f.Quantize(gamma, g)
			if err != nil {
				t.Fatal(err)
			}
			total := int64(0)
			for _, r := range rows {
				xq := quant.Vector(r, gamma, g)
				v, err := q.EvalInt(xq)
				if err != nil {
					t.Fatal(err)
				}
				total += v[0]
			}
			est := float64(total) / q.Scale()
			if e := math.Abs(est - truth); e > worst {
				worst = e
			}
		}
		if worst >= prevErr {
			t.Fatalf("error did not shrink: gamma=%v worst=%v prev=%v", gamma, worst, prevErr)
		}
		prevErr = worst
	}
	if prevErr > 1e-2 {
		t.Fatalf("error at gamma=4096 still %v", prevErr)
	}
}

func TestSensitivityBound(t *testing.T) {
	g := randx.New(6)
	// f(x) = x² over one variable, like the scalar covariance.
	f := MustMulti(MustPolynomial(1, Monomial{Coef: 1, Exps: []int{2}}))
	gamma := 64.0
	q, err := f.Quantize(gamma, g)
	if err != nil {
		t.Fatal(err)
	}
	d2, d1 := q.SensitivityBound(1)
	// The bound is â·(γc+1)² with â = γ; must dominate γ^{λ+1}·max f = γ³
	// and stay within the (1+o(1)) factor for this γ.
	want := math.Pow(gamma, 3)
	if d2 < want {
		t.Fatalf("Delta2 = %v below the scaled true sensitivity %v", d2, want)
	}
	if d2 > want*1.1 {
		t.Fatalf("Delta2 = %v too loose (want <= %v)", d2, want*1.1)
	}
	if d1 != math.Min(d2*d2, d2) { // d = 1 → √d·Δ2 = Δ2
		t.Fatalf("Delta1 = %v", d1)
	}
}

func TestSensitivityOverheadVanishesWithGamma(t *testing.T) {
	g := randx.New(7)
	f := MustMulti(MustPolynomial(1, Monomial{Coef: 1, Exps: []int{2}}))
	prev := math.Inf(1)
	for _, gamma := range []float64{16, 256, 4096} {
		q, err := f.Quantize(gamma, g)
		if err != nil {
			t.Fatal(err)
		}
		d2, _ := q.SensitivityBound(1)
		rel := d2/math.Pow(gamma, 3) - 1 // relative overhead vs γ^{λ+1}·c²
		if rel < 0 || rel >= prev {
			t.Fatalf("relative overhead %v not decreasing (prev %v)", rel, prev)
		}
		prev = rel
	}
	if prev > 0.001 {
		t.Fatalf("overhead at gamma=4096 still %v", prev)
	}
}

func TestMaxAbsBound(t *testing.T) {
	f := MustMulti(
		MustPolynomial(2, Monomial{Coef: 2, Exps: []int{1, 1}}),
		MustPolynomial(2, Monomial{Coef: 1, Exps: []int{1, 0}}),
	)
	// c=2: dim1 <= 2·4 = 8, dim2 <= 2 → bound = sqrt(64+4).
	got := f.MaxAbsBound(2)
	if math.Abs(got-math.Sqrt(68)) > 1e-12 {
		t.Fatalf("MaxAbsBound = %v", got)
	}
}
