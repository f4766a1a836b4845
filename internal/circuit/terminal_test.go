package circuit

import (
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/transport"
)

// releaseShape records the shape of every SQM release: inner products of
// shared columns, packed, a noise vector added — which reaches nothing
// but the opening, so its owner keeps it unshared — and one vector
// opening. It returns the handles of one product and of the packed
// vector, both on the last multiplicative level.
func releaseShape(b *Builder) (prod bgw.Val, packed bgw.Vec) {
	u := b.InputVec(0, []int64{3, -1, 4, 1})
	v := b.InputVec(1, []int64{-5, 9, 2, 6})
	dots := []bgw.Val{b.Dot(u, u), b.Dot(u, v), b.Dot(v, v)}
	packed = b.FromScalars(dots)
	noise := b.InputVec(2, []int64{7, -7, 1})
	b.OpenVecIdx(b.AddVec(packed, noise))
	return dots[1], packed
}

// topKept reports whether the plan has a multiplicative level and its
// last one reshares nothing: every product there is opened at the
// degree it has.
func (p *Plan) topKept() bool {
	return p.depth > 0 && len(p.muls[p.depth-1].reshare) == 0
}

// TestTerminalLevelIsOpenedUnreduced: mul → linear → open costs the
// input round and the opening round, and the frames of those two, on
// both drivers — and opens what the plain interpreter and the
// always-reducing gate-by-gate oracle open.
func TestTerminalLevelIsOpenedUnreduced(t *testing.T) {
	const p = 4
	b := NewBuilder(p, 0)
	releaseShape(b)
	plan := b.MustCompile()
	if !plan.topKept() || plan.Depth() != 1 || plan.Rounds() != 2 {
		t.Fatalf("top level kept %v, depth %d, rounds %d; want a kept level of depth 1 in 2 rounds", plan.topKept(), plan.Depth(), plan.Rounds())
	}
	want, err := plan.Plain(Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	// 3·3 + 1 + 16 + 1, −15 − 9 + 8 + 6, 25 + 81 + 4 + 36, plus the noise.
	if got := want.OpenedVec(0); got[0] != 27+7 || got[1] != -10-7 || got[2] != 146+1 {
		t.Fatalf("plain opened %v", got)
	}

	mono, err := bgw.NewEngine(bgw.Config{Parties: p, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	actor, err := bgw.NewActorEngine(bgw.Config{Parties: p, Seed: 5}, transport.NewChanMesh(p))
	if err != nil {
		t.Fatal(err)
	}
	defer actor.Close()
	for name, eng := range map[string]bgw.Evaluator{"mono": mono, "actor": actor} {
		res, err := plan.Execute(eng, Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want.OpenedVec(0) {
			if got := res.OpenedVec(0)[k]; got != w {
				t.Errorf("%s: element %d opened %d, plain %d", name, k, got, w)
			}
		}
		// The two column dealers' input frames, one to each of the
		// P − 1 − t = 2 unseeded peers, and one opening exchange, a frame
		// into party 0 from each of its P − 1 peers; the 4 + 4 column
		// elements to those peers and the 3 opened ones from every peer
		// into party 0. The noise costs nothing on the wire.
		st := eng.Stats()
		const unseeded = p - 1 - 1
		wantFrames, wantMsgs := int64(2*unseeded+(p-1)), int64(8*unseeded+3*(p-1))
		if st.Rounds != 2 || st.Frames != wantFrames || st.Messages != wantMsgs {
			t.Errorf("%s: %d rounds, %d frames, %d messages; want 2, %d, %d", name, st.Rounds, st.Frames, st.Messages, wantFrames, wantMsgs)
		}
	}

	eager, err := bgw.NewEngine(bgw.Config{Parties: p, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := plan.runEager(eager, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want.OpenedVec(0) {
		if got := eres.OpenedVec(0)[k]; got != w {
			t.Errorf("eager: element %d opened %d, plain %d", k, got, w)
		}
	}
	if r := eager.Stats().Rounds; r != 5 {
		t.Errorf("eager rounds = %d, want 5: the oracle reduces after every gate", r)
	}
}

// TestTerminalLevelHandlesDoNotResolve: a degree-2t sharing must not
// leave the plan that made it. VecOf refuses every vector of a level that
// reshares nothing and goes on resolving the levels below.
func TestTerminalLevelHandlesDoNotResolve(t *testing.T) {
	b := NewBuilder(4, 0)
	x := b.InputVec(0, []int64{6})
	low := b.LinComb([]bgw.Vec{x}, []int64{2}, 0) // level 0, and squared below: still a degree-t sharing
	prod, packed := releaseShape(b)
	b.OpenIdx(b.Add(prod, b.Dot(low, low)))
	plan := b.MustCompile()
	if !plan.topKept() {
		t.Fatal("the level reshares a product")
	}
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	mustViolate(t, "VecOf of a terminal linear gate", func() { res.VecOf(packed) })
	if res.VecOf(low) == nil || res.VecOf(x) == nil {
		t.Fatal("a handle below the terminal level no longer resolves")
	}
}

// TestDanglingTopLevelHandleKeepsTheLevelReduced: a top-level handle
// nothing consumes may be read back and multiplied by a later plan, so
// the level it sits on is reduced — whether it is a bare product or a
// linear gate beside an opening of the same product — and the later
// plan's product is right.
func TestDanglingTopLevelHandleKeepsTheLevelReduced(t *testing.T) {
	for _, linear := range []bool{false, true} {
		b := NewBuilder(4, 0)
		x, y := b.InputVec(0, []int64{6}), b.InputVec(1, []int64{-7})
		keep := b.Hadamard(x, y)
		if linear {
			// The product feeds an opening and a handle nothing reads.
			b.OpenVecIdx(keep)
			keep = b.LinComb([]bgw.Vec{keep}, []int64{1}, 2)
		} else {
			b.OpenIdx(b.Dot(y, y))
		}
		plan := b.MustCompile()
		if plan.topKept() || plan.Rounds() != 3 {
			t.Fatalf("linear=%v: top level kept %v, rounds %d; want a reduced level and 3 rounds", linear, plan.topKept(), plan.Rounds())
		}
		eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Execute(eng, Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		if r := eng.Stats().Rounds; r != 3 {
			t.Fatalf("linear=%v: %d rounds, want 3", linear, r)
		}

		next := NewBuilder(4, 0)
		ext := next.ExtVec(1)
		next.OpenIdx(next.Dot(ext, ext))
		nres, err := next.MustCompile().Execute(eng, Bindings{ExtVecs: []bgw.Vec{res.VecOf(keep)}})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(42 * 42)
		if linear {
			want = 40 * 40
		}
		if got := nres.Opened(0); got != want {
			t.Fatalf("linear=%v: the later plan squared the handle to %d, want %d", linear, got, want)
		}
	}
}

// TestDegreeRuleResharesOnlyWhatOverflows pins the degree rule on product
// chains over degree-t leaves: a product keeps its degree until the next
// multiplication would take it above P−1, and then the operand of higher
// degree — the lower one first, when even t beside it would not fit — is
// reshared, and nothing else. Each plan opens Plain's value on the
// engine, without an engine error, in Plan.Rounds() rounds.
func TestDegreeRuleResharesOnlyWhatOverflows(t *testing.T) {
	for _, c := range []struct {
		name     string
		p, t     int
		record   func(b *Builder, x []bgw.Val) []bgw.Val // the products, in record order
		reshared []bool
		rounds   int
	}{
		{"x·y·z at P = 4", 4, 1, chain(3), []bool{false, false}, 2},
		{"x·y·z at P = 3", 3, 1, chain(3), []bool{true, false}, 3},
		{"x·y·z·w at P = 4", 4, 1, chain(4), []bool{false, true, false}, 3},
		{"x·y·z at P = 7, t = 2", 7, 2, chain(3), []bool{false, false}, 2},
		{"x·y·z·w at P = 7, t = 2", 7, 2, chain(4), []bool{false, true, false}, 3},
		{"x·y·z at P = 5, t = 2", 5, 2, chain(3), []bool{true, false}, 3},
		{"(x·y)·(z·w) at P = 4", 4, 1, func(b *Builder, x []bgw.Val) []bgw.Val {
			xy, zw := b.Mul(x[0], x[1]), b.Mul(x[2], x[3])
			return []bgw.Val{xy, zw, b.Mul(xy, zw)}
		}, []bool{true, false, false}, 3},
		{"(x·y)·(z·w) at P = 3", 3, 1, func(b *Builder, x []bgw.Val) []bgw.Val {
			xy, zw := b.Mul(x[0], x[1]), b.Mul(x[2], x[3])
			return []bgw.Val{xy, zw, b.Mul(xy, zw)}
		}, []bool{true, true, false}, 3},
		{"x·y read back at P = 4", 4, 1, func(b *Builder, x []bgw.Val) []bgw.Val {
			xy := b.Mul(x[0], x[1])
			b.AddConst(xy, 1)
			return []bgw.Val{xy, b.Mul(xy, x[2])}
		}, []bool{true, false}, 3},
	} {
		b := NewBuilder(c.p, c.t)
		x := []bgw.Val{b.Input(0, 3), b.Input(1, -2), b.Input(2, 5), b.Input(0, 7)}
		prods := c.record(b, x)
		b.OpenIdx(prods[len(prods)-1])
		plan := b.MustCompile()
		for i, h := range prods {
			if got := plan.nodes[h.(*Val).id].reshare; got != c.reshared[i] {
				t.Errorf("%s: product %d reshared %v, want %v", c.name, i, got, c.reshared[i])
			}
		}
		want, err := plan.Plain(Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := bgw.NewEngine(bgw.Config{Parties: c.p, Threshold: c.t, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Execute(eng, Bindings{})
		if err != nil || eng.Err() != nil {
			t.Fatalf("%s: %v, engine %v", c.name, err, eng.Err())
		}
		if res.Opened(0) != want.Opened(0) || plan.Rounds() != c.rounds || eng.Stats().Rounds != int64(c.rounds) {
			t.Errorf("%s: opened %d in %d rounds (plan %d); want %d in %d", c.name, res.Opened(0), eng.Stats().Rounds, plan.Rounds(), want.Opened(0), c.rounds)
		}
	}
}

// chain records x[0]·x[1]·…·x[n−1] one factor at a time and returns the
// n−1 products.
func chain(n int) func(b *Builder, x []bgw.Val) []bgw.Val {
	return func(b *Builder, x []bgw.Val) []bgw.Val {
		prods := []bgw.Val{b.Mul(x[0], x[1])}
		for _, f := range x[2:n] {
			prods = append(prods, b.Mul(prods[len(prods)-1], f))
		}
		return prods
	}
}
