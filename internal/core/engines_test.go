package core

import (
	"testing"

	"sqm/internal/poly"
)

// allEngines lists every backend with the party count the MPC ones run
// at; EnginePlain ignores Parties.
func allEngines() []struct {
	name    string
	kind    EngineKind
	parties int
} {
	return []struct {
		name    string
		kind    EngineKind
		parties int
	}{
		{"plain", EnginePlain, 0},
		{"bgw", EngineBGW, 4},
		{"actor", EngineActorBGW, 4},
		{"actor-net", EngineActorBGWNet, 4},
	}
}

// TestAllEnginesBitIdentical is the refactor's acceptance gate: for one
// seeded SQM polynomial evaluation, the plaintext engine and the BGW
// engine's party goroutines — over the channel mesh, under both of its
// names (EngineBGW, EngineActorBGW), and over TCP sockets — must all open
// the exact same integers. Shamir reconstruction cancels the share randomness, so
// any divergence means an engine corrupted the arithmetic or consumed a
// quantization/noise RNG stream out of order.
func TestAllEnginesBitIdentical(t *testing.T) {
	x := randMatrix(15, 3, 0.8, 21)
	f := poly.MustMulti(
		poly.MustPolynomial(3,
			poly.Monomial{Coef: 1.1, Exps: []int{1, 1, 0}},
			poly.Monomial{Coef: -0.3, Exps: []int{0, 0, 2}},
			poly.Monomial{Coef: 0.7, Exps: []int{1, 1, 1}},
			poly.Monomial{Coef: 0.05, Exps: []int{0, 1, 0}},
		),
		poly.MustPolynomial(3, poly.Monomial{Coef: 1, Exps: []int{2, 0, 0}}),
	)
	base := Params{Gamma: 32, Mu: 40, NumClients: 3, Seed: 99}

	var want []int64
	for _, e := range allEngines() {
		p := base
		p.Engine = e.kind
		p.Parties = e.parties
		_, tr, err := EvaluatePolynomialSum(f, x, p)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if want == nil {
			want = tr.Scaled
			continue
		}
		for d := range want {
			if tr.Scaled[d] != want[d] {
				t.Fatalf("%s dim %d: opened %d, plain opened %d", e.name, d, tr.Scaled[d], want[d])
			}
		}
		if tr.Stats.Messages == 0 || tr.Stats.Rounds == 0 {
			t.Fatalf("%s: MPC trace must meter communication", e.name)
		}
	}
}

// TestAllEnginesCovarianceAgree extends the identity check to the
// specialized covariance protocol (fused inner-product gates).
func TestAllEnginesCovarianceAgree(t *testing.T) {
	x := randMatrix(20, 4, 0.6, 31)
	base := Params{Gamma: 64, Mu: 30, Seed: 7}

	var want []int64
	for _, e := range allEngines() {
		p := base
		p.Engine = e.kind
		p.Parties = e.parties
		_, tr, err := Covariance(x, p)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if want == nil {
			want = tr.Scaled
			continue
		}
		for d := range want {
			if tr.Scaled[d] != want[d] {
				t.Fatalf("%s entry %d: opened %d, plain opened %d", e.name, d, tr.Scaled[d], want[d])
			}
		}
	}
}

// TestAllEnginesLRGradientAgree extends the identity check to the
// stateful logistic-regression protocol: setup sharing plus two
// gradient rounds against the same weights.
func TestAllEnginesLRGradientAgree(t *testing.T) {
	feat := randMatrix(18, 3, 0.5, 41)
	labels := make([]float64, feat.Rows)
	for i := range labels {
		labels[i] = float64(i % 2)
	}
	w := []float64{0.2, -0.1, 0.4}
	base := Params{Gamma: 32, Mu: 25, Seed: 17}

	var want [][]int64
	for _, e := range allEngines() {
		p := base
		p.Engine = e.kind
		p.Parties = e.parties
		proto, err := NewLRProtocol(feat, labels, p)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var got [][]int64
		for round := 0; round < 2; round++ {
			_, tr, err := proto.GradientSum(w, nil)
			if err != nil {
				proto.Close()
				t.Fatalf("%s round %d: %v", e.name, round, err)
			}
			got = append(got, tr.Scaled)
		}
		proto.Close()
		if want == nil {
			want = got
			continue
		}
		for round := range want {
			for d := range want[round] {
				if got[round][d] != want[round][d] {
					t.Fatalf("%s round %d dim %d: %d != %d", e.name, round, d, got[round][d], want[round][d])
				}
			}
		}
	}
}
