package bgw

import (
	"math"
	"testing"

	"sqm/internal/field"
	"sqm/internal/shamir"
)

// The simulator test of the unreduced opening (PRIVACY.md "Open the
// degree you hold"). The circuit is the terminal shape at its smallest,
// y = a·c₁ + b·c₂: honest parties deal a and b, the coalition deals
// c₁ = 1 and c₂ = 2, the two products stay at degree 2t, their sum is
// opened. Two honest inputs give the same output, (a, b) = (4, 1) and
// (2, 2), so a view that depends on the output alone is the same
// distribution in both worlds.
//
// What a coalition of t parties sees of the opening is the row every
// honest party publishes. The marginal of a row is uniform with or
// without the zero mask — a Shamir share is — so the residues of the rows
// alone cannot tell a leak; the leak of a bare degree-2t polynomial is
// in the rows taken together with what the coalition already holds: its
// t points of each honest input's polynomial and the polynomials it
// dealt itself. From those, two bare rows are two linear equations in a
// and b, and the coalition solves them. coalitionGuess is that solver,
// and the test holds both the rows' residues and the guess's to a
// two-sample χ² between the worlds: under the mask every statistic is
// uniform in both; with the mask switched off the guess is the honest
// input, 4 in one world and 2 in the other.

// lagrangeAt returns the weights L_i with f(x) = Σ_i L_i·f(nodes[i]) for
// every polynomial of degree < len(nodes).
func lagrangeAt(nodes []field.Elem, x field.Elem) []field.Elem {
	w := make([]field.Elem, len(nodes))
	for i, ni := range nodes {
		num, den := field.Elem(1), field.Elem(1)
		for j, nj := range nodes {
			if j != i {
				num = field.Mul(num, field.Sub(x, nj))
				den = field.Mul(den, field.Sub(ni, nj))
			}
		}
		w[i] = field.Mul(num, field.Inv(den))
	}
	return w
}

// viewEngine starts a fresh inline engine whose parties publish with or
// without the zero mask, and lists the parties outside the coalition.
func viewEngine(t *testing.T, cfg Config, coalition []int, bare bool) (e *Engine, honest []int) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[int]bool)
	for _, c := range coalition {
		in[c] = true
	}
	for i, pa := range e.parties {
		pa.bare = bare
		if !in[i] {
			honest = append(honest, i)
		}
	}
	return e, honest
}

// terminalOpenView runs the circuit for honest inputs (a, b) on a fresh
// inline engine and returns what the coalition sees of the opening — the
// rows the honest parties publish — and coalitionGuess's answer for a.
func terminalOpenView(t *testing.T, cfg Config, coalition []int, a, b int64, bare bool) (rows []field.Elem, guess field.Elem) {
	t.Helper()
	e, honest := viewEngine(t, cfg, coalition, bare)
	// What Plan.Execute issues for a terminal level: the inputs, the
	// products unreduced, the linear gate, the opening.
	dealer := coalition[0]
	ins := e.InputBatch([]InputItem{
		{Owner: honest[0], Elem: field.FromInt64(a)},
		{Owner: honest[1], Elem: field.FromInt64(b)},
		{Owner: dealer, Elem: 1},
		{Owner: dealer, Elem: 2},
	})
	prods := e.MulBatchUnreduced([]MulItem{
		{Kind: MulScalar, A: ins[0], B: ins[2]},
		{Kind: MulScalar, A: ins[1], B: ins[3]},
	})
	if got := e.Open(e.Add(prods[0], prods[1])); got != a+2*b {
		t.Fatalf("opened %d, want %d", got, a+2*b)
	}
	for _, h := range honest {
		rows = append(rows, e.parties[h].pend[0])
	}
	return rows, coalitionGuess(e, coalition, honest, ins)
}

// coalitionGuess is the coalition's attack on a bare opening. A degree-t
// polynomial is fixed by its value at 0 and at the coalition's t points,
// so an honest party h's share of a is ℓ₀·a + Σ_c ℓ_c·a_c with public
// Lagrange weights and the coalition's own shares a_c; h's bare row,
// divided by λ_h, is f₁(x_h)·share_h(a) + f₂(x_h)·share_h(b) with f₁, f₂
// the polynomials the coalition dealt. Two honest rows give a 2×2 system
// in (a, b); the guess is its solution for a.
func coalitionGuess(e *Engine, coalition, honest []int, ins []Val) field.Elem {
	points := shamir.PartyPoints(e.p)
	nodes := []field.Elem{0}
	for _, c := range coalition {
		nodes = append(nodes, points[c])
	}
	slot := func(party int, v Val) field.Elem { return e.parties[party].sc[e.shared(v).ref] }
	var f1, f2, k [2]field.Elem
	for i, h := range honest[:2] {
		w := lagrangeAt(nodes, points[h])
		// The sub-shares the coalition's dealer sent h: its own doing.
		f1[i], f2[i] = slot(h, ins[2]), slot(h, ins[3])
		var knownA, knownB field.Elem
		for j, c := range coalition {
			knownA = field.Add(knownA, field.Mul(w[1+j], slot(c, ins[0])))
			knownB = field.Add(knownB, field.Mul(w[1+j], slot(c, ins[1])))
		}
		row := field.Mul(e.parties[h].pend[0], field.Inv(e.parties[h].weights[h]))
		row = field.Sub(row, field.Add(field.Mul(f1[i], knownA), field.Mul(f2[i], knownB)))
		k[i] = field.Mul(row, field.Inv(w[0]))
	}
	det := field.Sub(field.Mul(f1[0], f2[1]), field.Mul(f2[0], f1[1]))
	return field.Mul(field.Sub(field.Mul(k[0], f2[1]), field.Mul(k[1], f2[0])), field.Inv(det))
}

// twoSampleChi2 bins both samples by their low four bits and returns the
// two-sample χ² statistic (15 degrees of freedom).
func twoSampleChi2(x, y []field.Elem) float64 {
	var cx, cy [16]float64
	for _, v := range x {
		cx[v&15]++
	}
	for _, v := range y {
		cy[v&15]++
	}
	var chi2 float64
	for k := range cx {
		if s := cx[k] + cy[k]; s > 0 {
			chi2 += (cx[k] - cy[k]) * (cx[k] - cy[k]) / s
		}
	}
	return chi2
}

func TestTerminalOpenViewIsSimulatedFromTheOutput(t *testing.T) {
	const seeds = 500
	limit := 15 + 6*math.Sqrt(2*15) // the bound TestHostedSkellamSums… uses
	for _, c := range []struct {
		parties   int
		coalition []int
	}{
		{3, []int{0}}, {3, []int{1}}, {3, []int{2}},
		{5, []int{1, 3}}, {5, []int{0, 4}},
	} {
		for _, bare := range []bool{false, true} {
			var rowsA, rowsB, guessA, guessB []field.Elem
			for s := uint64(0); s < seeds; s++ {
				cfg := Config{Parties: c.parties, Seed: 0x51b0 + s}
				ra, ga := terminalOpenView(t, cfg, c.coalition, 4, 1, bare)
				cfg.Seed += seeds
				rb, gb := terminalOpenView(t, cfg, c.coalition, 2, 2, bare)
				rowsA, rowsB = append(rowsA, ra...), append(rowsB, rb...)
				guessA, guessB = append(guessA, ga), append(guessB, gb)
			}
			rows, guess := twoSampleChi2(rowsA, rowsB), twoSampleChi2(guessA, guessB)
			if !bare {
				if rows > limit || guess > limit {
					t.Errorf("P=%d coalition %v: χ² of the published rows %.1f, of the coalition's guess %.1f between two inputs with one output; want below %.1f",
						c.parties, c.coalition, rows, guess, limit)
				}
				continue
			}
			// The negative control: without the zero mask the same test
			// must tell the worlds apart — the guess is the input itself.
			if guess <= limit {
				t.Errorf("P=%d coalition %v: the mask is off and χ² of the guess is %.1f: the test cannot see the leak it is there for", c.parties, c.coalition, guess)
			}
			for _, g := range guessA {
				if g != 4 {
					t.Fatalf("P=%d coalition %v: bare opening, the coalition guessed a = %d, want 4", c.parties, c.coalition, g)
				}
			}
		}
	}
}

// The simulator test of the unshared input (PRIVACY.md "Add what only
// you know at the opening"). Two honest parties each hold an addend η
// that reaches nothing but the opening, so neither shares it: it goes
// into the row its owner publishes. Two honest assignments give the same
// output, (η₁, η₂) = (5, 1) and (2, 4), in two circuits: y = a·c + η₁ +
// η₂, the release shape at its smallest — the coalition deals a = 3 and
// c = 2, so it knows every party's point of the unreduced product — and
// the pure masked sum y = η₀ + η₁ + η₂ with η₀ = 7 the coalition's own.
//
// The coalition's attack is a subtraction: an honest row less that
// party's point of what the coalition dealt is η + ζ. Under the mask that
// is uniform in both worlds; with the mask switched off it is η itself.

// unsharedOpenView runs one of the two circuits for honest addends
// (eta1, eta2) on a fresh inline engine and returns the rows the honest
// parties publish and the coalition's guess for η₁.
func unsharedOpenView(t *testing.T, cfg Config, coalition []int, eta1, eta2 int64, product, bare bool) (rows []field.Elem, guess field.Elem) {
	t.Helper()
	e, honest := viewEngine(t, cfg, coalition, bare)
	// What Plan.Execute issues: the coalition's part — two shared inputs
	// and their unreduced product, or its own unshared addend — the honest
	// addends unshared, the linear gates, the opening.
	dealer, h := coalition[0], e.parties[honest[0]]
	var base Val
	var known field.Elem // λ_h times honest[0]'s point of the coalition's part
	own := int64(7)
	if product {
		ins := e.InputBatch([]InputItem{{Owner: dealer, Elem: 3}, {Owner: dealer, Elem: 2}})
		base = e.MulBatchUnreduced([]MulItem{{Kind: MulScalar, A: ins[0], B: ins[1]}})[0]
		// The sub-shares the dealer sent honest[0]: its own doing.
		known = field.Mul(h.weights[h.id], field.Mul(h.sc[e.shared(ins[0]).ref], h.sc[e.shared(ins[1]).ref]))
		own = 6
	} else {
		base = e.At(e.InputUnshared(dealer, []int64{own}), 0)
	}
	n1 := e.At(e.InputUnshared(honest[0], []int64{eta1}), 0)
	n2 := e.At(e.InputUnshared(honest[1], []int64{eta2}), 0)
	if got := e.Open(e.Add(e.Add(base, n1), n2)); got != own+eta1+eta2 {
		t.Fatalf("opened %d, want %d", got, own+eta1+eta2)
	}
	for _, i := range honest {
		rows = append(rows, e.parties[i].pend[0])
	}
	return rows, field.Sub(rows[0], known)
}

func TestUnsharedInputViewIsSimulatedFromTheOutput(t *testing.T) {
	const seeds = 500
	limit := 15 + 6*math.Sqrt(2*15)
	for _, c := range []struct {
		parties   int
		coalition []int
	}{
		{3, []int{0}}, {3, []int{1}}, {3, []int{2}},
		{5, []int{1, 3}}, {5, []int{0, 4}},
	} {
		for _, product := range []bool{true, false} {
			for _, bare := range []bool{false, true} {
				var rowsA, rowsB, guessA, guessB []field.Elem
				for s := uint64(0); s < seeds; s++ {
					cfg := Config{Parties: c.parties, Seed: 0x7a11 + s}
					ra, ga := unsharedOpenView(t, cfg, c.coalition, 5, 1, product, bare)
					cfg.Seed += seeds
					rb, gb := unsharedOpenView(t, cfg, c.coalition, 2, 4, product, bare)
					rowsA, rowsB = append(rowsA, ra...), append(rowsB, rb...)
					guessA, guessB = append(guessA, ga), append(guessB, gb)
				}
				rows, guess := twoSampleChi2(rowsA, rowsB), twoSampleChi2(guessA, guessB)
				if !bare {
					if rows > limit || guess > limit {
						t.Errorf("P=%d coalition %v product=%v: χ² of the published rows %.1f, of the coalition's guess %.1f between two assignments with one output; want below %.1f",
							c.parties, c.coalition, product, rows, guess, limit)
					}
					continue
				}
				// The negative control: without the zero mask the coalition
				// reads the addend off the row.
				if guess <= limit {
					t.Errorf("P=%d coalition %v product=%v: the mask is off and χ² of the guess is %.1f: the test cannot see the leak it is there for", c.parties, c.coalition, product, guess)
				}
				for _, g := range guessA {
					if g != 5 {
						t.Fatalf("P=%d coalition %v product=%v: bare opening, the coalition read η₁ = %d, want 5", c.parties, c.coalition, product, g)
					}
				}
			}
		}
	}
}
