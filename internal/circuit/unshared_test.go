package circuit

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/obs"
	"sqm/internal/transport"
)

// TestOpenOnlyLeavesAreNotShared: an input leaf every path from which
// runs through linear gates into an opening is entered unshared — every
// kind of leaf, scalar (one unshared vector per owner, taken apart with
// At) and vector, folded or not — and costs no frame, no message and, when
// the plan shares nothing else, no input round; FieldOps is one λ⁻¹·x per
// element at the owner plus the opening's one per element and party. The
// opened values are the plain interpreter's and the all-sharing oracle's.
func TestOpenOnlyLeavesAreNotShared(t *testing.T) {
	const p = 4
	for _, tc := range []struct {
		name     string
		unshared int   // leaves left unshared, after folding
		elems    int64 // their elements
		opened   int64 // elements opened
		openings int64 // opening exchanges: the plan's rounds
		eager    int64 // runEager's rounds: an input round per scalar leaf, one for the vector leaves after the last, the openings
		record   func(b *Builder)
		bind     Bindings
	}{
		{"every scalar kind, two owners", 3, 3, 1, 1, 4, func(b *Builder) {
			// Owner 1's literal and parameter fold into one kInputSum; owner
			// 3's literal and owner 1's second literal, consumed twice, stay
			// as they are.
			twice := b.Input(1, 9)
			sum := b.Add(b.Add(b.Input(1, 5), b.InputParam(1)), b.Input(3, -2))
			b.OpenIdx(b.Sub(b.MulConst(b.Add(sum, twice), 3), b.AddConst(twice, 1)))
		}, Bindings{Inputs: []int64{70}}},
		{"vectors, a folded sum among them", 2, 6, 4, 2, 3, func(b *Builder) {
			acc := b.AddVec(b.InputVec(2, []int64{1, 2, 3}), b.InputVec(0, []int64{7, 7, 7}))
			acc = b.AddVec(acc, b.InputVec(2, []int64{100, 200, 300}))
			b.OpenVecIdx(b.LinComb([]bgw.Vec{acc, b.LinComb([]bgw.Vec{acc}, nil, 1)}, []int64{2, -1}, 4))
			b.OpenIdx(b.At(acc, 1))
		}, Bindings{}},
		{"scalars and a vector into one packed opening", 3, 4, 2, 1, 3, func(b *Builder) {
			v := b.InputVec(0, []int64{-4, 6})
			b.OpenVecIdx(b.AddVec(v, b.FromScalars([]bgw.Val{b.Input(0, 1), b.Input(3, 2)})))
		}, Bindings{}},
	} {
		ub := NewBuilder(p, 0)
		tc.record(ub)
		want, err := compileUnfolded(t, ub).Plain(tc.bind)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(p, 0)
		tc.record(b)
		plan := b.MustCompile()
		if plan.nUnshared != tc.unshared || plan.hasInputs || plan.Rounds() != int(tc.openings) || plan.EagerRounds() != int(tc.eager) {
			t.Fatalf("%s: %d unshared leaves, shared inputs %v, %d rounds (eager %d); want %d, none, %d (eager %d)",
				tc.name, plan.nUnshared, plan.hasInputs, plan.Rounds(), plan.EagerRounds(), tc.unshared, tc.openings, tc.eager)
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
		// Every opening exchange is one frame into party 0 from each of
		// its P − 1 peers, carrying every opened element.
		exp := bgw.Stats{
			Rounds:   tc.openings,
			Frames:   tc.openings * (p - 1),
			Messages: tc.opened * (p - 1),
			Bytes:    8 * tc.opened * (p - 1),
		}
		for name, eng := range map[string]bgw.Evaluator{"mono": mono, "actor": actor} {
			res, err := plan.Execute(eng, tc.bind)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOpened(res, want) {
				t.Errorf("%s on %s: opened %v %v, as recorded %v %v", tc.name, name, res.opened, res.openedVecs, want.opened, want.openedVecs)
			}
			st := eng.Stats()
			linear := st.FieldOps - tc.elems - p*tc.opened // the MulConst / LinComb gates' own
			st.FieldOps = 0
			if st != exp || linear < 0 {
				t.Errorf("%s on %s: counters %+v (%d field operations beside the inputs' and the opening's), want %+v", tc.name, name, st, linear, exp)
			}
		}
		eager, err := bgw.NewEngine(bgw.Config{Parties: p, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		eres, err := plan.runEager(eager, tc.bind)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOpened(eres, want) || eager.Stats().Rounds != tc.eager {
			t.Errorf("%s: the all-sharing oracle opened %v %v in %d rounds, want %v %v in %d", tc.name, eres.opened, eres.openedVecs, eager.Stats().Rounds, want.opened, want.openedVecs, tc.eager)
		}
	}
}

// TestMultipliedOrReadableLeavesStayShared: the same leaf → linear → open
// shape keeps its leaf a degree-t sharing as soon as the leaf, or
// anything linear over it, also feeds a multiplication or ends in a
// handle nothing consumes — and only that leaf: a second one beside it
// that reaches nothing but the opening is still unshared.
func TestMultipliedOrReadableLeavesStayShared(t *testing.T) {
	for _, tc := range []struct {
		name   string
		extra  func(b *Builder, x bgw.Val, lin bgw.Val)
		opened []int64
	}{
		{"the leaf is also squared", func(b *Builder, x, lin bgw.Val) { b.OpenIdx(b.Mul(x, x)) }, []int64{17, 36}},
		{"a linear gate over it is also multiplied", func(b *Builder, x, lin bgw.Val) { b.OpenIdx(b.Mul(lin, b.Input(2, 2))) }, []int64{17, 24}},
		{"a linear handle over it dangles", func(b *Builder, x, lin bgw.Val) { b.AddConst(lin, 1) }, []int64{17}},
	} {
		b := NewBuilder(4, 0)
		x, other := b.Input(0, 6), b.Input(1, 5)
		lin := b.MulConst(x, 2)
		b.OpenIdx(b.Add(lin, other))
		tc.extra(b, x, lin)
		plan := b.MustCompile()
		if n := &plan.nodes[x.(*Val).id]; n.late {
			t.Fatalf("%s: the leaf is unshared", tc.name)
		}
		if n := &plan.nodes[other.(*Val).id]; !n.late || plan.nUnshared != 1 || !plan.hasInputs {
			t.Fatalf("%s: the leaf beside it: unshared %v of %d, shared inputs %v; want it alone unshared", tc.name, n.late, plan.nUnshared, plan.hasInputs)
		}
		res, st := runPlan(t, plan, Bindings{})
		if !reflect.DeepEqual(res.opened, tc.opened) || st.Rounds != int64(plan.Rounds()) {
			t.Fatalf("%s: opened %v in %d rounds, want %v in %d", tc.name, res.opened, st.Rounds, tc.opened, plan.Rounds())
		}
	}
}

// mustNameTheOpening demands the violation of an open-only handle: one
// whose sharing has a degree above t.
func mustNameTheOpening(t *testing.T, what string, fn func()) {
	t.Helper()
	mustViolateNaming(t, what, "above t", fn)
}

// TestUnsharedLeafHandlesDoNotResolve: a sharing of degree P−1 must not
// leave the plan that made it. VecOf refuses an unshared leaf and
// everything downstream of it, as it refuses an unreduced product. A
// dangling handle over the same kind of leaf keeps it shared, readable,
// and a later plan multiplies it correctly.
func TestUnsharedLeafHandlesDoNotResolve(t *testing.T) {
	b := NewBuilder(4, 0)
	x, y := b.Input(0, 6), b.Input(1, -7)
	eta := b.Input(2, 3)
	noise := b.InputVec(3, []int64{1, 2})
	shifted := b.AddConst(eta, 10)
	out := b.AddVec(noise, b.FromScalars([]bgw.Val{shifted, b.Mul(x, y)}))
	b.OpenVecIdx(out)
	plan := b.MustCompile()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OpenedVec(0); !reflect.DeepEqual(got, []int64{14, -40}) {
		t.Fatalf("opened %v, want [14 -40]", got)
	}
	mustNameTheOpening(t, "VecOf an unshared vector leaf", func() { res.VecOf(noise) })
	mustNameTheOpening(t, "VecOf the opened sum", func() { res.VecOf(out) })

	// An addend with a handle nothing consumes: shared, readable, and good
	// for a later plan's multiplication.
	kb := NewBuilder(4, 0)
	keta := kb.InputVec(2, []int64{3})
	keep := kb.LinComb([]bgw.Vec{keta}, []int64{1}, 10)
	kb.OpenVecIdx(kb.LinComb([]bgw.Vec{keta}, []int64{2}, 0))
	kplan := kb.MustCompile()
	if kplan.nUnshared != 0 || kplan.Rounds() != 2 {
		t.Fatalf("dangling handle: %d unshared leaves in %d rounds, want 0 in 2", kplan.nUnshared, kplan.Rounds())
	}
	kres, err := kplan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	next := NewBuilder(4, 0)
	ext := next.ExtVec(1)
	next.OpenIdx(next.Dot(ext, ext))
	nres, err := next.MustCompile().Execute(eng, Bindings{ExtVecs: []bgw.Vec{kres.VecOf(keep)}})
	if err != nil || eng.Err() != nil {
		t.Fatal(err, eng.Err())
	}
	if got := nres.Opened(0); got != 13*13 {
		t.Fatalf("the later plan squared the handle to %d, want 169", got)
	}
}

// TestExecSpanCarriesUnsharedInputs: the circuit.exec span says how many
// input leaves the plan did not share, so a timeline explains a missing
// input round.
func TestExecSpanCarriesUnsharedInputs(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewLog(&buf, "json", obs.LevelDebug)
	b := NewBuilder(4, 0)
	releaseShape(b)
	plan := b.MustCompile()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 11, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(eng, Bindings{}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"circuit.exec"`) {
			if !strings.Contains(line, `"unshared_inputs":1`) {
				t.Fatalf("circuit.exec span lacks unshared_inputs=1: %s", line)
			}
			return
		}
	}
	t.Fatal("no circuit.exec span recorded")
}
