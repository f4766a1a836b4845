package core

import (
	"testing"

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
// the opening one frame per link.
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
		frames := 3*unseeded + (c.rounds-2)*P*unseeded + P*(P-1)
		if tr.Stats.Rounds != c.rounds || tr.Stats.Frames != frames {
			t.Errorf("P=%d: %d rounds and %d frames, want %d and %d", c.parties, tr.Stats.Rounds, tr.Stats.Frames, c.rounds, frames)
		}
	}
}
