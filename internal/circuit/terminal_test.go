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

// TestTerminalLevelIsOpenedUnreduced: mul → linear → open costs the
// input round and the opening round, and the frames of those two, on
// both drivers — and opens what the plain interpreter and the
// always-reducing gate-by-gate oracle open.
func TestTerminalLevelIsOpenedUnreduced(t *testing.T) {
	const p = 4
	b := NewBuilder(p, 0)
	releaseShape(b)
	plan := b.MustCompile()
	if !plan.terminal || plan.Depth() != 1 || plan.Rounds() != 2 {
		t.Fatalf("terminal %v depth %d rounds %d, want a terminal level of depth 1 in 2 rounds", plan.terminal, plan.Depth(), plan.Rounds())
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
		// The two column dealers' input frames and one opening exchange; the
		// 4 + 4 column elements and the 3 opened ones to every peer. The
		// noise costs nothing on the wire.
		st := eng.Stats()
		if st.Rounds != 2 || st.Frames != 2*(p-1)+p*(p-1) || st.Messages != (8+3*p)*(p-1) {
			t.Errorf("%s: %d rounds, %d frames, %d messages; want 2, %d, %d", name, st.Rounds, st.Frames, st.Messages, 2*(p-1)+p*(p-1), (8+3*p)*(p-1))
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
// leave the plan that made it. ValOf / VecOf refuse every node of a
// terminal level and go on resolving the levels below.
func TestTerminalLevelHandlesDoNotResolve(t *testing.T) {
	b := NewBuilder(4, 0)
	x := b.Input(0, 6)
	low := b.MulConst(x, 2) // level 0, and squared below: still a degree-t sharing
	prod, packed := releaseShape(b)
	b.OpenIdx(b.Add(prod, b.Mul(low, low)))
	plan := b.MustCompile()
	if !plan.terminal {
		t.Fatal("level is not terminal")
	}
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	mustViolate(t, "ValOf of a terminal product", func() { res.ValOf(prod) })
	mustViolate(t, "VecOf of a terminal linear gate", func() { res.VecOf(packed) })
	if res.ValOf(low) == nil || res.ValOf(x) == nil {
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
		x, y := b.Input(0, 6), b.Input(1, -7)
		keep := b.Mul(x, y)
		if linear {
			// The product feeds an opening and a handle nothing reads.
			b.OpenIdx(keep)
			keep = b.AddConst(keep, 2)
		} else {
			b.OpenIdx(b.Mul(y, y))
		}
		plan := b.MustCompile()
		if plan.terminal || plan.Rounds() != 3 {
			t.Fatalf("linear=%v: terminal %v, rounds %d; want a reduced level and 3 rounds", linear, plan.terminal, plan.Rounds())
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
		ext := next.ExtVal()
		next.OpenIdx(next.Mul(ext, ext))
		nres, err := next.MustCompile().Execute(eng, Bindings{Ext: []bgw.Val{res.ValOf(keep)}})
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
