package core

import (
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/poly"
)

// TestDegreeThreeMonomialKeepsItsProducts pins the degree rule on
// Algorithm 3's product chain: a degree-3 monomial multiplies x_a·x_b, a
// sharing of degree 2t, by x_c, to 3t, and opens the sum. At P = 4,
// t = 1 that is P−1, so nothing reshares and the release costs the input
// round and the opening; at P = 3 the first product must reshare before
// the second and the release pays a third round. Either way it opens the
// plain engine's integers, and every dealing is one frame per unseeded
// peer (P − 1 − t of them; t = 1 at both sizes) — the three column
// owners' input frames and every party's in each resharing level — and
// the opening one frame into party 0 from each of its P − 1 peers.
func TestDegreeThreeMonomialKeepsItsProducts(t *testing.T) {
	x := randMatrix(10, 3, 0.7, 13)
	f := poly.MustMulti(poly.MustPolynomial(3, poly.Monomial{Coef: 0.7, Exps: []int{1, 1, 1}}))
	base := Params{Gamma: 32, Mu: 40, NumClients: 3, Seed: 5}
	_, want, err := EvaluatePolynomialSum(f, x, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		parties int
		rounds  int64
	}{{3, 3}, {4, 2}} {
		p := base
		p.Engine, p.Parties = EngineActorBGW, c.parties
		_, tr, err := EvaluatePolynomialSum(f, x, p)
		if err != nil {
			t.Fatalf("P=%d: %v", c.parties, err)
		}
		if tr.Scaled[0] != want.Scaled[0] {
			t.Errorf("P=%d: opened %d, plain %d", c.parties, tr.Scaled[0], want.Scaled[0])
		}
		P := int64(c.parties)
		unseeded := P - 1 - 1
		frames := 3*unseeded + (c.rounds-2)*P*unseeded + (P - 1)
		if tr.Stats.Rounds != c.rounds || tr.Stats.Frames != frames {
			t.Errorf("P=%d: %d rounds and %d frames, want %d and %d", c.parties, tr.Stats.Rounds, tr.Stats.Frames, c.rounds, frames)
		}
	}
}

// TestPolynomialSumMonomialDegreesMatchPlain is Algorithm 3's differential
// test over monomials of every degree from 0 to 4 — a column sum, a dot,
// Hadamard chains of one and two links before their dot, a square and a
// fourth power of one column — in two output dimensions, with every column
// read by a monomial of degree 2 or more. On both BGW drivers, at P = 4,
// t = 1 and P = 5, t = 2, the opened integers are the plain engine's, and
// the rounds, frames, messages and bytes are those the release cost when
// it recorded every monomial per record as a chain of scalar products,
// less what the opening of the two outputs no longer sends since only
// party 0, which decodes, is sent rows: (P−1)² of its P(P−1) frames and
// 2·(P−1)² of its messages.
func TestPolynomialSumMonomialDegreesMatchPlain(t *testing.T) {
	x := randMatrix(12, 4, 0.6, 29)
	f := poly.MustMulti(
		poly.MustPolynomial(4,
			poly.Monomial{Coef: 0.7, Exps: []int{0, 0, 0, 0}},
			poly.Monomial{Coef: -0.3, Exps: []int{1, 0, 0, 0}},
			poly.Monomial{Coef: 1.1, Exps: []int{0, 1, 1, 0}},
			poly.Monomial{Coef: 0.5, Exps: []int{2, 0, 0, 1}},
			poly.Monomial{Coef: -0.8, Exps: []int{1, 1, 1, 1}},
		),
		poly.MustPolynomial(4,
			poly.Monomial{Coef: 0.2, Exps: []int{0, 0, 0, 1}},
			poly.Monomial{Coef: 0.9, Exps: []int{0, 0, 2, 0}},
			poly.Monomial{Coef: -0.6, Exps: []int{0, 4, 0, 0}},
		),
	)
	base := Params{Gamma: 16, Mu: 30, NumClients: 4, Seed: 41}
	_, plain, err := EvaluatePolynomialSum(f, x, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		parties, threshold int
		want               bgw.Stats // FieldOps is not compared
	}{
		{4, 1, bgw.Stats{Rounds: 3, Frames: 28 - 9, Messages: 312 - 2*9, Bytes: 2496 - 8*2*9}},
		{5, 2, bgw.Stats{Rounds: 4, Frames: 48 - 16, Messages: 736 - 2*16, Bytes: 5888 - 8*2*16}},
	} {
		for _, engine := range []EngineKind{EngineBGW, EngineActorBGW} {
			p := base
			p.Engine, p.Parties, p.Threshold = engine, c.parties, c.threshold
			_, tr, err := EvaluatePolynomialSum(f, x, p)
			if err != nil {
				t.Fatalf("P=%d %v: %v", c.parties, engine, err)
			}
			for d := range plain.Scaled {
				if tr.Scaled[d] != plain.Scaled[d] {
					t.Errorf("P=%d %v: output %d opened %d, plain %d", c.parties, engine, d, tr.Scaled[d], plain.Scaled[d])
				}
			}
			got := tr.Stats
			got.FieldOps = 0
			if got != c.want {
				t.Errorf("P=%d %v: %+v, want %+v", c.parties, engine, got, c.want)
			}
		}
	}
}
