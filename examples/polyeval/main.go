// General multi-dimensional polynomial evaluation over MPC: Algorithm 3
// end to end, with the real BGW engine and both privacy views (server-
// and client-observed RDP, Lemma 4) reported.
//
// The function of interest here is a 2-dimensional polynomial over a
// 3-column database, mixing degrees — exactly the case where SQM's
// coefficient pre-processing matters (a uniform γ^{λ+1} factor per
// monomial regardless of degree):
//
//	f₁(x) = 0.5·x₁² + 1.5·x₂·x₃ − 0.3·x₃ + 0.1
//	f₂(x) = x₁·x₂
//
// Run with: go run ./examples/polyeval
package main

import (
	"fmt"
	"log"

	"sqm"
)

func main() {
	f := sqm.MustMulti(
		sqm.MustPolynomial(3,
			sqm.Monomial{Coef: 0.5, Exps: []int{2, 0, 0}},
			sqm.Monomial{Coef: 1.5, Exps: []int{0, 1, 1}},
			sqm.Monomial{Coef: -0.3, Exps: []int{0, 0, 1}},
			sqm.Monomial{Coef: 0.1, Exps: []int{0, 0, 0}},
		),
		sqm.MustPolynomial(3,
			sqm.Monomial{Coef: 1, Exps: []int{1, 0, 0}},
		),
	)

	// A 60-record database split across 3 clients (one column each).
	x := sqm.NewMatrix(60, 3)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		row[0] = 0.3 + 0.004*float64(i)
		row[1] = 0.5 - 0.003*float64(i)
		row[2] = 0.2 + 0.002*float64(i%7)
	}
	truth := make([]float64, 2)
	for i := 0; i < x.Rows; i++ {
		v := f.Eval(x.Row(i))
		truth[0] += v[0]
		truth[1] += v[1]
	}

	const (
		gamma = 1 << 12
		eps   = 2.0
		delta = 1e-5
	)
	// A conservative sensitivity bound for this f on the unit ball:
	// per-dimension monomial bounds scaled by γ^{λ+1}.
	scale := float64(gamma) * float64(gamma) * float64(gamma)
	delta2 := 2.4 * scale // Σ|coef|·c^deg = 2.4 with c = 1
	delta1 := delta2 * 1.4142
	mu, err := sqm.CalibrateSkellamMu(eps, delta, delta1, delta2, 1, 1)
	if err != nil {
		log.Fatal(err)
	}

	est, trace, err := sqm.EvaluatePolynomialSum(f, x, sqm.Params{
		Gamma:   gamma,
		Mu:      mu,
		Engine:  sqm.EngineBGW,
		Parties: 4,
		Seed:    13,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("true aggregate : (%.4f, %.4f)\n", truth[0], truth[1])
	fmt.Printf("SQM estimate   : (%.4f, %.4f)   at ε=%.1f, δ=%g\n", est[0], est[1], eps, delta)
	// Two rounds: the columns' input round and the opening. f has degree
	// 2, so its products are opened at degree 2t, never reshared; a
	// degree-3 monomial would keep that count at P = 4, t = 1, where 3t
	// is P − 1, and add a resharing round at P = 3.
	fmt.Printf("protocol cost  : %d rounds, %d messages, %d field ops, simulated time %v\n",
		trace.Stats.Rounds, trace.Stats.Messages, trace.Stats.FieldOps, trace.TotalTime().Round(1e6))

	// Both privacy views of §III-A. The server faces the full Sk(μ);
	// a curious client knows one local share and the record count.
	sEps, sAlpha := sqm.SkellamEpsilon(delta1, delta2, mu, 1, 1, delta)
	cEps, cAlpha := sqm.SkellamClientEpsilon(delta1, delta2, mu, 3, 1, delta)
	fmt.Printf("server-observed: ε=%.3f (α=%d)\n", sEps, sAlpha)
	fmt.Printf("client-observed: ε=%.3f (α=%d) — weaker, as Lemma 4 predicts\n", cEps, cAlpha)
}
