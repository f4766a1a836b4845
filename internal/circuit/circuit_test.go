package circuit

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/obs"
	"sqm/internal/transport"
)

// buildPoly records (x·y + 3)·x − y with one opened output and returns
// the builder: depth 2, two mul gates.
func buildPoly(b *Builder) {
	x := b.Input(0, 5)
	y := b.Input(1, -7)
	xy := b.Mul(x, y)
	s := b.AddConst(xy, 3)
	p := b.Mul(s, x)
	b.OpenIdx(b.Sub(p, y))
}

func TestCompileLevels(t *testing.T) {
	// Level 2 feeds only the Sub and the opening, so it keeps its degree
	// and costs no round. Level 1's x·y has degree 2t, and level 2 takes
	// it to 3t: at P = 3 that is above P−1 and level 1 reshares — input
	// round, level 1's reduction, output round — while at P = 4 it fits
	// and only the input and output rounds are left. Gate by gate the
	// two Inputs are an input round each, and each Mul one exchange: 5.
	for _, c := range []struct{ parties, rounds int }{{3, 3}, {4, 2}} {
		b := NewBuilder(c.parties, 0)
		buildPoly(b)
		plan := b.MustCompile()
		if plan.Depth() != 2 {
			t.Fatalf("P=%d: depth = %d, want 2", c.parties, plan.Depth())
		}
		if plan.MulGates() != 2 {
			t.Fatalf("P=%d: mul gates = %d, want 2", c.parties, plan.MulGates())
		}
		if plan.Rounds() != c.rounds {
			t.Fatalf("P=%d: rounds = %d, want %d", c.parties, plan.Rounds(), c.rounds)
		}
		if plan.EagerRounds() != 5 {
			t.Fatalf("P=%d: eager rounds = %d, want 5", c.parties, plan.EagerRounds())
		}
	}
}

func TestExecuteMatchesPlainAcrossEngines(t *testing.T) {
	b := NewBuilder(4, 0)
	buildPoly(b)
	plan := b.MustCompile()

	want := int64((5*-7+3)*5 - (-7))
	pr, err := plan.Plain(Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Opened(0); got != want {
		t.Fatalf("plain = %d, want %d", got, want)
	}

	mono, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := plan.Execute(bgw.Eval(mono), Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mr.Opened(0); got != want {
		t.Fatalf("mono = %d, want %d", got, want)
	}
	if r := mono.Stats().Rounds; r != int64(plan.Rounds()) {
		t.Fatalf("mono rounds = %d, want %d", r, plan.Rounds())
	}

	actor, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: 11}, transport.NewChanMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	defer actor.Close()
	ar, err := plan.Execute(actor, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ar.Opened(0); got != want {
		t.Fatalf("actor = %d, want %d", got, want)
	}
	if r := actor.Stats().Rounds; r != int64(plan.Rounds()) {
		t.Fatalf("actor rounds = %d, want %d", r, plan.Rounds())
	}
}

// TestExecuteEmitsLevelSpans pins the executor's instrumentation: with
// a debug-level recorder on the engine, the input round, every
// multiplicative level and the open round produce span events carrying
// their "seconds" — Depth()
// level spans still, one that reshares nothing saying that it did not
// reduce and moved nothing. At P = 3 the poly's first level reshares and
// its second does not (TestCompileLevels).
func TestExecuteEmitsLevelSpans(t *testing.T) {
	var log bytes.Buffer
	rec := obs.NewLog(&log, "json", obs.LevelDebug)
	b := NewBuilder(3, 0)
	buildPoly(b)
	plan := b.MustCompile()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 3, Seed: 11, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(bgw.Eval(eng), Bindings{}); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	var reduced []bool
	for _, line := range bytes.Split(log.Bytes(), []byte("\n")) {
		var ev struct {
			Msg     string
			Reduced bool
			Frames  int64
			Rounds  int64
			Seconds *float64
		}
		if json.Unmarshal(line, &ev) != nil || !strings.HasPrefix(ev.Msg, "circuit.") {
			continue
		}
		if ev.Seconds == nil || *ev.Seconds < 0 {
			t.Errorf("%s span event carries no seconds", ev.Msg)
		}
		spans[ev.Msg]++
		if ev.Msg != "circuit.level" {
			continue
		}
		reduced = append(reduced, ev.Reduced)
		if !ev.Reduced && (ev.Frames != 0 || ev.Rounds != 0) {
			t.Errorf("unreduced level span carries %d frames and %d rounds, want none", ev.Frames, ev.Rounds)
		}
	}
	if want := map[string]int{"circuit.exec": 1, "circuit.input": 1, "circuit.level": plan.Depth(), "circuit.open": 1}; !maps.Equal(spans, want) {
		t.Fatalf("span events = %v, want %v", spans, want)
	}
	if len(reduced) != 2 || !reduced[0] || reduced[1] {
		t.Fatalf("circuit.level spans reduced = %v, want [true false]", reduced)
	}
}

// TestEachOpeningIsARound: the engine counts every exchange it issues,
// and a plan's outputs open in one OpenBatch for the scalars and one
// OpenVec per vector. A plan with one scalar and two vector outputs over
// one reshared level takes the input round, the level's resharing and 3
// openings, on both drivers, as Plan.Rounds predicts.
func TestEachOpeningIsARound(t *testing.T) {
	const p = 3
	b := NewBuilder(p, 0)
	x, y := b.InputVec(0, []int64{1, -2, 3}), b.InputVec(1, []int64{4, 5, -6})
	xy := b.Hadamard(x, y)
	b.OpenIdx(b.Dot(xy, x)) // 2t + t is above P − 1: the Hadamard reshares
	b.OpenVecIdx(xy)
	b.OpenVecIdx(b.AddVec(x, y))
	plan := b.MustCompile()
	if plan.Rounds() != 1+1+3 {
		t.Fatalf("plan rounds = %d, want 5 (input, one reshared level, 3 openings)", plan.Rounds())
	}
	mono, err := bgw.NewEngine(bgw.Config{Parties: p, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	actor, err := bgw.NewActorEngine(bgw.Config{Parties: p, Seed: 4}, transport.NewChanMesh(p))
	if err != nil {
		t.Fatal(err)
	}
	defer actor.Close()
	for name, eng := range map[string]bgw.Evaluator{"engine": mono, "actor": actor} {
		before := eng.Stats().Rounds
		res, err := plan.Execute(eng, Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Stats().Rounds - before; got != int64(plan.Rounds()) {
			t.Errorf("%s: engine counted %d rounds, plan %d", name, got, plan.Rounds())
		}
		if res.Opened(0) != 4+20-54 || !slices.Equal(res.OpenedVec(0), []int64{4, -10, -18}) || !slices.Equal(res.OpenedVec(1), []int64{5, 3, -3}) {
			t.Errorf("%s: opened %d %v %v", name, res.Opened(0), res.OpenedVec(0), res.OpenedVec(1))
		}
	}
}

func TestParamsRebindAcrossExecutions(t *testing.T) {
	b := NewBuilder(4, 0)
	c := b.ConstParam()
	x := b.InputParam(0)
	v := b.InputVec(1, []int64{1, 2, 3})
	d := b.Dot(v, v)
	b.OpenIdx(b.AddConstP(b.Mul(x, d), c))
	plan := b.MustCompile()

	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ev := bgw.Eval(eng)
	for i, tc := range []struct {
		c, x  int64
		wants int64
	}{
		{c: 10, x: 2, wants: 2*14 + 10},
		{c: -4, x: -3, wants: -3*14 - 4},
	} {
		res, err := plan.Execute(ev, Bindings{Consts: []int64{tc.c}, Inputs: []int64{tc.x}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Opened(0); got != tc.wants {
			t.Fatalf("run %d: got %d, want %d", i, got, tc.wants)
		}
		pr, err := plan.Plain(Bindings{Consts: []int64{tc.c}, Inputs: []int64{tc.x}})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Opened(0) != tc.wants {
			t.Fatalf("run %d plain: got %d, want %d", i, pr.Opened(0), tc.wants)
		}
	}
}

// TestBatchedLevelIsOneFrameExchange: N independent muls of one level
// must cost one reshare exchange — P(P−1−t) frames, each dealer's to its
// unseeded peers — regardless of N, and
// the N muls of the level above it, which only the openings read, none.
// At P = 3 the first level's products (degree 2t = P−1) must reshare
// before the second multiplies them.
func TestBatchedLevelIsOneFrameExchange(t *testing.T) {
	const p, n = 3, 9
	const unseeded = p - 1 - 1 // P − 1 − t peers take a dealer's row by frame
	build := func() *Plan {
		b := NewBuilder(p, 0)
		xs := make([]bgw.Val, n)
		for i := range xs {
			xs[i] = b.Input(i%p, int64(i+1))
		}
		for i := range xs {
			b.OpenIdx(b.Mul(b.Mul(xs[i], xs[(i+1)%n]), xs[i]))
		}
		return b.MustCompile()
	}
	plan := build()
	if plan.Depth() != 2 || plan.MulGates() != 2*n {
		t.Fatalf("depth %d mulgates %d, want 2 and %d", plan.Depth(), plan.MulGates(), 2*n)
	}
	// Planned: the input round, level 1's resharing, the opening. Gate by
	// gate: an input round per Input, an exchange per Mul and per Open.
	if plan.Rounds() != 3 || plan.EagerRounds() != 4*n {
		t.Fatalf("rounds %d, eager %d; want 3 and %d", plan.Rounds(), plan.EagerRounds(), 4*n)
	}

	run := func(exec func(bgw.Evaluator, Bindings) (*Result, error)) (rounds, frames int64, opened []int64) {
		eng, err := bgw.NewActorEngine(bgw.Config{Parties: p, Seed: 99}, transport.NewChanMesh(p))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := exec(eng, Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		opened = make([]int64, n)
		for i := range opened {
			opened[i] = res.Opened(i)
		}
		st := eng.Stats()
		return st.Rounds, st.Frames, opened
	}

	pRounds, pFrames, pVals := run(plan.Execute)
	eRounds, eFrames, eVals := run(plan.runEager)

	if pRounds != int64(plan.Rounds()) {
		t.Errorf("planned rounds = %d, want %d", pRounds, plan.Rounds())
	}
	if eRounds != int64(plan.EagerRounds()) {
		t.Errorf("eager rounds = %d, want %d", eRounds, plan.EagerRounds())
	}
	// Planned frames: a dealing is one frame per unseeded peer, an opening
	// one per link into party 0, the one that decodes. The n scalar inputs share as one InputVec per owner —
	// each of the p owners deals once — then one reshare exchange for level 1, none
	// for level 2, which is opened at the degree it has, then one batched
	// opening.
	const owners = p // n ≥ p inputs dealt round-robin: every party owns some
	wantPlanned := int64(owners*unseeded + p*unseeded + (p - 1))
	if pFrames != wantPlanned {
		t.Errorf("planned frames = %d, want %d", pFrames, wantPlanned)
	}
	// Eager frames: one Input per scalar, one reshare exchange per gate,
	// one opening exchange per output.
	wantEager := int64(n*unseeded + 2*n*p*unseeded + n*(p-1))
	if eFrames != wantEager {
		t.Errorf("eager frames = %d, want %d", eFrames, wantEager)
	}
	for i := range pVals {
		if pVals[i] != eVals[i] {
			t.Fatalf("output %d: planned %d != eager %d", i, pVals[i], eVals[i])
		}
	}
}

// TestExtValBridgesPlans: shares produced by a setup plan feed a second
// plan through ExtVal bindings.
func TestExtValBridgesPlans(t *testing.T) {
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ev := bgw.Eval(eng)

	setup := NewBuilder(4, 0)
	colH := setup.InputVec(0, []int64{4, -2, 9})
	setupPlan := setup.MustCompile()
	sres, err := setupPlan.Execute(ev, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	col := sres.VecOf(colH)

	b := NewBuilder(4, 0)
	extH := b.ExtVec(3)
	b.OpenIdx(b.Dot(extH, extH))
	plan := b.MustCompile()
	res, err := plan.Execute(ev, Bindings{ExtVecs: []bgw.Vec{col}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Opened(0), int64(16+4+81); got != want {
		t.Fatalf("dot = %d, want %d", got, want)
	}
}
