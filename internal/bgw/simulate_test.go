package bgw

import (
	"math"
	"slices"
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
// What a coalition of t parties with party 0 sees of the opening is the
// row every honest party publishes; only party 0 is sent rows, so a
// coalition without it sees nothing of the opening, and the test holds
// every coalition to the view it would have with party 0. The marginal
// of a row is uniform with or without the zero mask — a Shamir share
// is — so the residues of the rows alone cannot tell a leak; the leak of
// a bare degree-2t polynomial is in the rows taken together with what
// the coalition already holds: its t points of each honest input's
// polynomial and the polynomials it dealt itself. From those, two bare rows are two linear equations in a
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

// viewEngine starts a fresh engine whose parties publish with or
// without the zero mask, and lists the parties outside the coalition.
func viewEngine(t *testing.T, cfg Config, coalition []int, bare bool) (e *Engine, honest []int) {
	t.Helper()
	e = newActorChan(t, cfg)
	in := make(map[int]bool)
	for _, c := range coalition {
		in[c] = true
	}
	for i := range e.parties {
		e.parties[i].bare = bare
		if !in[i] {
			honest = append(honest, i)
		}
	}
	return e, honest
}

// terminalOpenView runs the circuit for honest inputs (a, b) on a fresh
// engine and returns what a coalition with party 0 sees of the
// opening — the rows the honest parties publish — coalitionGuess's
// answer for a, and how many opening rows reached the coalition.
func terminalOpenView(t *testing.T, cfg Config, coalition []int, a, b int64, bare bool) (rows []field.Elem, guess field.Elem, received int) {
	t.Helper()
	e, honest := viewEngine(t, cfg, coalition, bare)
	log := logRows(e)
	// What Plan.Execute issues for a terminal level: the inputs, the
	// products unreduced, the linear gate, the opening.
	dealer := coalition[0]
	ins := inputScalars(e, []int{honest[0], honest[1], dealer, dealer}, []int64{a, b, 1, 2})
	prods := e.MulBatchUnreduced([]MulItem{
		{Kind: MulScalar, A: ins[0], B: ins[2]},
		{Kind: MulScalar, A: ins[1], B: ins[3]},
	})
	sum := e.Add(prods[0], prods[1])
	e.Stats() // a barrier: the log holds every row of the input round
	before := log.clone()
	if got := e.Open(sum); got != a+2*b {
		t.Fatalf("opened %d, want %d", got, a+2*b)
	}
	for _, h := range honest {
		rows = append(rows, published(e, h))
	}
	opened := log.since(before)
	for _, c := range coalition {
		for i := range opened {
			received += len(opened[i][c])
		}
	}
	return rows, coalitionGuess(e, coalition, honest, ins), received
}

// published returns the first element of the row party h published in
// the engine's last opening. Party 0 sums the opening's rows into its own
// in place, so its row is that sum less every other party's.
func published(e *Engine, h int) field.Elem {
	row := e.parties[h].row[0]
	if h == 0 {
		for j := 1; j < e.p; j++ {
			row = field.Sub(row, e.parties[j].row[0])
		}
	}
	return row
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
		row := field.Mul(published(e, h), field.Inv(e.parties[h].weights[h]))
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
				ra, ga, na := terminalOpenView(t, cfg, c.coalition, 4, 1, bare)
				cfg.Seed += seeds
				rb, gb, nb := terminalOpenView(t, cfg, c.coalition, 2, 2, bare)
				// Only party 0 is sent opening rows, one from each peer: a
				// coalition without it receives none, and the χ² below is
				// the view of a coalition with it.
				wantRows := 0
				if slices.Contains(c.coalition, 0) {
					wantRows = c.parties - 1
				}
				if na != wantRows || nb != wantRows {
					t.Fatalf("P=%d coalition %v: received %d and %d opening rows, want %d", c.parties, c.coalition, na, nb, wantRows)
				}
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
// (eta1, eta2) on a fresh engine and returns the rows the honest
// parties publish and the coalition's guess for η₁.
func unsharedOpenView(t *testing.T, cfg Config, coalition []int, eta1, eta2 int64, product, bare bool) (rows []field.Elem, guess field.Elem) {
	t.Helper()
	e, honest := viewEngine(t, cfg, coalition, bare)
	// What Plan.Execute issues: the coalition's part — two shared inputs
	// and their unreduced product, or its own unshared addend — the honest
	// addends unshared, the linear gates, the opening.
	dealer, h := coalition[0], &e.parties[honest[0]]
	var base Val
	var known field.Elem // λ_h times honest[0]'s point of the coalition's part
	own := int64(7)
	if product {
		ins := inputScalars(e, []int{dealer, dealer}, []int64{3, 2})
		base = e.MulBatchUnreduced([]MulItem{{Kind: MulScalar, A: ins[0], B: ins[1]}})[0]
		e.Stats() // a barrier: honest[0]'s slots are safe to read
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
		rows = append(rows, published(e, i))
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

// The simulator test of resharing a product above degree 2t (PRIVACY.md
// "Multiply the degree you hold"). At P = 4, t = 1 the honest parties
// deal a and b and the coalition deals c = 3; a·b is kept unreduced at
// degree 2, and its product with c — degree 3 = P−1, every party's local
// point — is reshared by MulBatch. What the coalition sees of that round
// is one sub-share from every honest party, that party's point under a
// fresh degree-t sharing, and the new share it folds from them. Two
// honest inputs with one output, (a, b) = (4, 1) and (2, 2): a view that
// depends on the output alone is the same distribution in both worlds.

// resharedView runs the circuit for honest inputs (a, b) on a fresh
// engine and returns the coalition's view of the resharing: the
// sub-shares every honest party sent it, then its new shares.
func resharedView(t *testing.T, cfg Config, coalition []int, a, b int64) []field.Elem {
	t.Helper()
	e, honest := viewEngine(t, cfg, coalition, false)
	ins := inputScalars(e, []int{honest[0], honest[1], coalition[0]}, []int64{a, b, 3})
	ab := e.MulBatchUnreduced([]MulItem{{Kind: MulScalar, A: ins[0], B: ins[1]}})[0]
	abc := e.MulBatch([]MulItem{{Kind: MulScalar, A: ab, B: ins[2]}})[0]
	if e.shared(ab).deg+e.shared(ins[2]).deg != e.p-1 || e.Err() != nil {
		t.Fatalf("reshared a point of degree %d, err %v; want P−1", e.shared(ab).deg+e.shared(ins[2]).deg, e.Err())
	}
	e.Stats() // a barrier: the parties' slots and scratch are safe to read
	var view []field.Elem
	for _, c := range coalition {
		// The sub-shares are the rows the fold took: the new share is their
		// Lagrange combination with every other party's, its own included.
		pc := &e.parties[c]
		var fold field.Elem
		for j := range e.parties {
			fold = field.Add(fold, field.Mul(pc.weights[j], e.parties[j].sh.rows[c][0]))
		}
		for _, h := range honest {
			view = append(view, e.parties[h].sh.rows[c][0])
		}
		share := pc.sc[e.shared(abc).ref]
		if fold != share {
			t.Fatalf("party %d: the captured sub-shares fold to %d, its new share is %d", c, fold, share)
		}
		view = append(view, share)
	}
	if got := e.Open(abc); got != 3*a*b {
		t.Fatalf("opened %d, want %d", got, 3*a*b)
	}
	return view
}

func TestResharedHighDegreeViewIsSimulatedFromTheOutput(t *testing.T) {
	const seeds = 500
	limit := 15 + 6*math.Sqrt(2*15)
	for _, coalition := range [][]int{{0}, {1}, {3}} {
		var viewA, viewB []field.Elem
		for s := uint64(0); s < seeds; s++ {
			cfg := Config{Parties: 4, Threshold: 1, Seed: 0x3e5a + s}
			viewA = append(viewA, resharedView(t, cfg, coalition, 4, 1)...)
			cfg.Seed += seeds
			viewB = append(viewB, resharedView(t, cfg, coalition, 2, 2)...)
		}
		if chi2 := twoSampleChi2(viewA, viewB); chi2 > limit {
			t.Errorf("coalition %v: χ² of the resharing's view %.1f between two inputs with one output; want below %.1f", coalition, chi2, limit)
		}
	}
}

// The rank test of seeded dealing (PRIVACY.md "Seeded dealing"). Dealer
// o's sharing of a fixed secret is an affine function of its t seeded
// draws: the seeded peers' shares are the draws, every other share is
// Weights[i][0]·secret + Σ_m Weights[i][1+m]·draw_m. A coalition C of t
// parties without o sees t of those shares; when the linear part of the
// map from the draws to C's shares has full rank, it is a bijection, so
// C's shares are uniform whatever the secret — computationally, since the
// draws come from a PRG, as the opening's mask does.

// dealingView returns the linear part of the map from the draws to the
// shares of coalition: one row per member, one column per draw. seeds[m]
// says which draws peer d.Peers[m]'s share is made of (a row of the
// same width); a sound dealing gives peer m draw m alone.
func dealingView(d *shamir.Dealing, coalition []int, seeds [][]field.Elem) [][]field.Elem {
	view := make([][]field.Elem, len(coalition))
	for r, c := range coalition {
		view[r] = make([]field.Elem, len(seeds[0]))
		for m, j := range d.Peers {
			// Member c's share takes peer j's draw with coefficient 1 if c is
			// j, and with its interpolation weight if c is interpolated.
			coef := field.Elem(0)
			switch {
			case c == j:
				coef = 1
			case d.Weights[c] != nil:
				coef = d.Weights[c][1+m]
			}
			for k, s := range seeds[m] {
				view[r][k] = field.Add(view[r][k], field.Mul(coef, s))
			}
		}
	}
	return view
}

// fieldRank returns the rank of m over the field by Gaussian elimination;
// m is overwritten.
func fieldRank(m [][]field.Elem) int {
	rank := 0
	for col := 0; len(m) > 0 && col < len(m[0]) && rank < len(m); col++ {
		pivot := -1
		for r := rank; r < len(m); r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[rank], m[pivot] = m[pivot], m[rank]
		inv := field.Inv(m[rank][col])
		for r := range m {
			if r == rank || m[r][col] == 0 {
				continue
			}
			f := field.Mul(m[r][col], inv)
			for k := col; k < len(m[r]); k++ {
				m[r][k] = field.Sub(m[r][k], field.Mul(f, m[rank][k]))
			}
		}
		rank++
	}
	return rank
}

// coalitionsWithout lists every t-subset of the p parties that leaves out
// party o.
func coalitionsWithout(p, t, o int) [][]int {
	var out [][]int
	var pick func(next int, c []int)
	pick = func(next int, c []int) {
		if len(c) == t {
			out = append(out, append([]int(nil), c...))
			return
		}
		for i := next; i < p; i++ {
			if i != o {
				pick(i+1, append(c, i))
			}
		}
	}
	pick(0, nil)
	return out
}

func TestSeededDealingViewIsUniform(t *testing.T) {
	for _, c := range []struct{ p, t int }{{3, 1}, {4, 1}, {5, 2}, {10, 4}} {
		e := newActorChan(t, Config{Parties: c.p, Threshold: c.t, Seed: 1})
		identity := make([][]field.Elem, c.t)
		for m := range identity {
			identity[m] = make([]field.Elem, c.t)
			identity[m][m] = 1
		}
		for o, pa := range e.parties {
			d := pa.dealing
			if len(d.Peers) != c.t {
				t.Fatalf("P=%d t=%d: dealer %d seeds %d peers", c.p, c.t, o, len(d.Peers))
			}
			for _, coalition := range coalitionsWithout(c.p, c.t, o) {
				if r := fieldRank(dealingView(d, coalition, identity)); r != c.t {
					t.Errorf("P=%d t=%d dealer %d coalition %v: the draws reach its shares with rank %d, want %d",
						c.p, c.t, o, coalition, r, c.t)
				}
			}
		}
		if c.t != 2 {
			continue
		}
		// Negative control: a dealing that hands both seeded peers draw 0
		// leaves C's shares on a line, and the rank check must see it.
		reused := [][]field.Elem{{1, 0}, {1, 0}}
		for o, pa := range e.parties {
			for _, coalition := range coalitionsWithout(c.p, c.t, o) {
				if r := fieldRank(dealingView(pa.dealing, coalition, reused)); r == c.t {
					t.Errorf("P=%d dealer %d coalition %v: a dealing that reuses a draw passed the rank check", c.p, o, coalition)
				}
			}
		}
	}
}
