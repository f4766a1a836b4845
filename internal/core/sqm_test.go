package core

import (
	"math"
	"strings"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/linalg"
	"sqm/internal/obs"
	"sqm/internal/poly"
	"sqm/internal/randx"
)

func randMatrix(rows, cols int, scale float64, seed uint64) *linalg.Matrix {
	g := randx.New(seed)
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = scale * (2*g.Float64() - 1)
	}
	return m
}

func TestParamsValidation(t *testing.T) {
	x := randMatrix(3, 2, 1, 1)
	f := poly.MustMulti(poly.MustPolynomial(2, poly.Monomial{Coef: 1, Exps: []int{1, 1}}))
	if _, _, err := EvaluatePolynomialSum(f, x, Params{Gamma: 0.5}); err == nil {
		t.Fatal("gamma < 1 must be rejected")
	}
	if _, _, err := EvaluatePolynomialSum(f, x, Params{Gamma: 4, Mu: -1}); err == nil {
		t.Fatal("negative mu must be rejected")
	}
	if _, _, err := EvaluatePolynomialSum(f, x, Params{Gamma: 4, Engine: EngineBGW, Parties: 2}); err == nil {
		t.Fatal("2-party BGW must be rejected")
	}
	bad := poly.MustMulti(poly.MustPolynomial(3, poly.Monomial{Coef: 1, Exps: []int{1, 0, 0}}))
	if _, _, err := EvaluatePolynomialSum(bad, x, Params{Gamma: 4}); err == nil {
		t.Fatal("variable/column mismatch must be rejected")
	}
	// The trace context is read from the recorder it wraps, and its party
	// streams must be the engine's parties.
	traced := obs.NewTraceContext(1, 5).Coordinator().Wrap(nil)
	if _, _, err := EvaluatePolynomialSum(f, x, Params{Gamma: 4, Engine: EngineBGW, Parties: 3, Recorder: traced}); err == nil ||
		!strings.Contains(err.Error(), "trace context has 5 party streams, engine has 3 parties") {
		t.Fatalf("a 5-stream trace on 3 parties: err = %v", err)
	}
}

func TestClientAndPartyMapping(t *testing.T) {
	p := Params{NumClients: 4, Engine: EngineBGW, Parties: 3}
	// 8 columns over 4 clients: block partition.
	if p.clientOf(0, 8) != 0 || p.clientOf(1, 8) != 0 || p.clientOf(2, 8) != 1 || p.clientOf(7, 8) != 3 {
		t.Fatal("block client mapping wrong")
	}
	// One client per column when NumClients >= cols.
	p2 := Params{NumClients: 8}
	if p2.clientOf(5, 8) != 5 {
		t.Fatal("identity client mapping wrong")
	}
	if p.partyOf(5) != 2 {
		t.Fatalf("partyOf(5) = %d", p.partyOf(5))
	}
}

func TestMonomialSumNoiselessAccuracy(t *testing.T) {
	// Algorithm 1 with μ=0: the estimate converges to the truth as γ
	// grows (Corollary 1).
	x := randMatrix(50, 3, 0.5, 2)
	m := poly.Monomial{Coef: 2.5, Exps: []int{1, 1, 1}}
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	truth := 0.0
	for _, r := range rows {
		truth += m.Eval(r)
	}
	prev := math.Inf(1)
	for _, gamma := range []float64{16, 128, 1024} {
		est, tr, err := EvaluateMonomialSum(m, x, Params{Gamma: gamma, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Scale != math.Pow(gamma, 3) {
			t.Fatalf("Scale = %v, want γ^3", tr.Scale)
		}
		e := math.Abs(est - truth)
		if e >= prev {
			t.Fatalf("gamma=%v: error %v did not shrink (prev %v)", gamma, e, prev)
		}
		prev = e
	}
	if prev > 0.05 {
		t.Fatalf("error at γ=1024 still %v", prev)
	}
}

func TestMonomialSumRejectsConstant(t *testing.T) {
	x := randMatrix(3, 1, 1, 1)
	if _, _, err := EvaluateMonomialSum(poly.Monomial{Coef: 1, Exps: []int{0}}, x, Params{Gamma: 4}); err == nil {
		t.Fatal("degree-0 monomial must be rejected by Algorithm 1")
	}
}

func TestPolynomialSumNoiselessAccuracy(t *testing.T) {
	// Algorithm 3 with μ=0 on a mixed-degree polynomial.
	x := randMatrix(40, 2, 0.6, 4)
	f := poly.MustMulti(
		poly.MustPolynomial(2,
			poly.Monomial{Coef: 0.5, Exps: []int{2, 0}},
			poly.Monomial{Coef: 1.5, Exps: []int{1, 1}},
			poly.Monomial{Coef: -0.3, Exps: []int{0, 1}},
			poly.Monomial{Coef: 0.1, Exps: []int{0, 0}},
		),
		poly.MustPolynomial(2, poly.Monomial{Coef: 1, Exps: []int{1, 0}}),
	)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	truth := f.EvalSum(rows)
	est, tr, err := EvaluatePolynomialSum(f, x, Params{Gamma: 4096, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scale != math.Pow(4096, 3) {
		t.Fatalf("Scale = %v, want γ^{λ+1}", tr.Scale)
	}
	for d := range truth {
		if e := math.Abs(est[d] - truth[d]); e > 0.02 {
			t.Fatalf("dim %d: |%v - %v| = %v", d, est[d], truth[d], e)
		}
	}
}

func TestPolynomialSumNoiseVariance(t *testing.T) {
	// On all-zero data, the estimate is pure noise Sk(μ)/γ^{λ+1}: its
	// empirical variance must match 2μ/γ^{2(λ+1)}.
	x := linalg.NewMatrix(5, 1)
	f := poly.MustMulti(poly.MustPolynomial(1, poly.Monomial{Coef: 1, Exps: []int{2}}))
	gamma, mu := 16.0, 1e6
	const trials = 3000
	var sumsq float64
	for trial := 0; trial < trials; trial++ {
		est, _, err := EvaluatePolynomialSum(f, x, Params{Gamma: gamma, Mu: mu, NumClients: 3, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		sumsq += est[0] * est[0]
	}
	scale := math.Pow(gamma, 3)
	want := 2 * mu / (scale * scale)
	got := sumsq / trials
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("noise variance = %v, want %v", got, want)
	}
}

func TestPlainAndBGWPolynomialAgreeExactly(t *testing.T) {
	// The BGW engine must be bit-identical to the plaintext engine for
	// the same seed: secret sharing is exact.
	x := randMatrix(12, 3, 0.8, 6)
	f := poly.MustMulti(
		poly.MustPolynomial(3,
			poly.Monomial{Coef: 1.2, Exps: []int{1, 1, 0}},
			poly.Monomial{Coef: -0.4, Exps: []int{0, 0, 2}},
			poly.Monomial{Coef: 0.9, Exps: []int{1, 1, 1}}, // degree 3: generic gate chain
			poly.Monomial{Coef: 0.05, Exps: []int{1, 0, 0}},
			poly.Monomial{Coef: 2, Exps: []int{0, 0, 0}},
		),
		poly.MustPolynomial(3, poly.Monomial{Coef: 1, Exps: []int{0, 2, 0}}),
	)
	base := Params{Gamma: 32, Mu: 50, NumClients: 3, Seed: 77}
	plainEst, plainTr, err := EvaluatePolynomialSum(f, x, base)
	if err != nil {
		t.Fatal(err)
	}
	bgwP := base
	bgwP.Engine = EngineBGW
	bgwP.Parties = 4
	bgwEst, bgwTr, err := EvaluatePolynomialSum(f, x, bgwP)
	if err != nil {
		t.Fatal(err)
	}
	for d := range plainEst {
		if plainTr.Scaled[d] != bgwTr.Scaled[d] {
			t.Fatalf("dim %d: plain %d vs BGW %d", d, plainTr.Scaled[d], bgwTr.Scaled[d])
		}
		if plainEst[d] != bgwEst[d] {
			t.Fatalf("dim %d: estimates differ", d)
		}
	}
	if bgwTr.Stats.Messages == 0 || bgwTr.Stats.Rounds == 0 {
		t.Fatal("BGW trace must meter communication")
	}
	if plainTr.Stats.Messages != 0 {
		t.Fatal("plain trace must not meter communication")
	}
}

func TestMonomialPlainAndBGWAgree(t *testing.T) {
	x := randMatrix(8, 2, 0.7, 8)
	m := poly.Monomial{Coef: 1, Exps: []int{2, 1}} // degree 3
	base := Params{Gamma: 16, Mu: 9, Seed: 13}
	p1, tr1, err := EvaluateMonomialSum(m, x, base)
	if err != nil {
		t.Fatal(err)
	}
	bg := base
	bg.Engine = EngineBGW
	p2, tr2, err := EvaluateMonomialSum(m, x, bg)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Scaled[0] != tr2.Scaled[0] || p1 != p2 {
		t.Fatalf("plain %v (%d) vs BGW %v (%d)", p1, tr1.Scaled[0], p2, tr2.Scaled[0])
	}
}

// Property: for random degree-<=2 polynomials, random data and random
// noise levels, the plaintext and BGW engines open identical integers.
func TestPlainBGWEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		g := randx.New(uint64(1000 + trial))
		nv := 2 + g.IntN(3)
		var ms []poly.Monomial
		for k := 0; k < 1+g.IntN(4); k++ {
			exps := make([]int, nv)
			for d := 0; d < 1+g.IntN(2); d++ {
				exps[g.IntN(nv)]++
			}
			ms = append(ms, poly.Monomial{Coef: 2*g.Float64() - 1, Exps: exps})
		}
		f := poly.MustMulti(poly.MustPolynomial(nv, ms...))
		x := randMatrix(3+g.IntN(10), nv, 0.7, uint64(2000+trial))
		base := Params{Gamma: float64(uint64(4) << g.IntN(5)), Mu: float64(g.IntN(50)), Seed: uint64(3000 + trial)}
		p1, tr1, err := EvaluatePolynomialSum(f, x, base)
		if err != nil {
			t.Fatalf("trial %d plain: %v", trial, err)
		}
		bg := base
		bg.Engine = EngineBGW
		bg.Parties = 3 + g.IntN(3)
		p2, tr2, err := EvaluatePolynomialSum(f, x, bg)
		if err != nil {
			t.Fatalf("trial %d bgw: %v", trial, err)
		}
		for d := range p1 {
			if tr1.Scaled[d] != tr2.Scaled[d] || p1[d] != p2[d] {
				t.Fatalf("trial %d dim %d: %d vs %d", trial, d, tr1.Scaled[d], tr2.Scaled[d])
			}
		}
	}
}

// TestFieldOverflowDetectedBeforeBGW: the static bound is checked before
// the engine is selected, so all four kinds refuse the same Params — the
// plain engine included, which could have answered (in int64) what the
// field cannot hold.
func TestFieldOverflowDetectedBeforeBGW(t *testing.T) {
	x := randMatrix(4, 2, 1, 9)
	mono := poly.Monomial{Coef: 1, Exps: []int{1, 1}}
	f := poly.MustMulti(poly.MustPolynomial(2, mono))
	for _, e := range allEngines() {
		// The noise tail breaks the polynomial's bound; the aggregate
		// itself, 4·(2³⁰)², the monomial's.
		p := Params{Gamma: 4, Mu: 1e38, Engine: e.kind, Parties: e.parties, Seed: 1}
		if _, _, err := EvaluatePolynomialSum(f, x, p); err != ErrFieldOverflow {
			t.Errorf("%s polynomial: err = %v, want ErrFieldOverflow", e.name, err)
		}
		p = Params{Gamma: 1 << 30, Engine: e.kind, Parties: e.parties, Seed: 1}
		if _, _, err := EvaluateMonomialSum(mono, x, p); err != ErrFieldOverflow {
			t.Errorf("%s monomial: err = %v, want ErrFieldOverflow", e.name, err)
		}
	}
}

func TestTraceTimeModel(t *testing.T) {
	x := randMatrix(6, 2, 0.5, 10)
	f := poly.MustMulti(poly.MustPolynomial(2, poly.Monomial{Coef: 1, Exps: []int{1, 1}}))
	p := Params{Gamma: 8, Mu: 4, Engine: EngineBGW, Seed: 2}
	_, tr, err := EvaluatePolynomialSum(f, x, p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalTime() < tr.Stats.NetTime(bgw.DefaultLatency) {
		t.Fatal("total time must include simulated network time")
	}
	if tr.NoiseTime() > tr.TotalTime() {
		t.Fatal("noise time cannot exceed total time")
	}
	if tr.NoiseTime() != tr.NoiseCompute {
		t.Fatal("DP costs no round: the noise rides the opening unshared, so its time is its computation")
	}
}
