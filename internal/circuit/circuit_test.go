package circuit

import (
	"bytes"
	"encoding/json"
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
	b := NewBuilder(4, 0)
	buildPoly(b)
	plan := b.MustCompile()
	if plan.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", plan.Depth())
	}
	if plan.MulGates() != 2 {
		t.Fatalf("mul gates = %d, want 2", plan.MulGates())
	}
	// input round + level 1's reduction + output round: level 2 feeds
	// only the Sub and the opening, so it is terminal and costs no round.
	if plan.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", plan.Rounds())
	}
	if plan.EagerRounds() != 4 {
		t.Fatalf("eager rounds = %d, want 4", plan.EagerRounds())
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
// a debug-level recorder on the engine, every multiplicative level and
// the open round produce spans, observed in the recorder's registry —
// Depth() level spans still, the terminal one saying that it did not
// reduce and moved nothing.
func TestExecuteEmitsLevelSpans(t *testing.T) {
	var log bytes.Buffer
	rec := obs.NewLog(&log, "json", obs.LevelDebug)
	b := NewBuilder(4, 0).SetRecorder(rec)
	if b.Recorder() != obs.Recorder(rec) {
		t.Fatal("SetRecorder not surfaced through Recorder()")
	}
	buildPoly(b)
	plan := b.MustCompile()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 11, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(bgw.Eval(eng), Bindings{}); err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics()
	if got := m.Histogram("circuit.exec.seconds").Snapshot().Count; got != 1 {
		t.Fatalf("circuit.exec spans = %d, want 1", got)
	}
	if got := m.Histogram("circuit.level.seconds").Snapshot().Count; got != int64(plan.Depth()) {
		t.Fatalf("circuit.level spans = %d, want %d", got, plan.Depth())
	}
	if got := m.Histogram("circuit.open.seconds").Snapshot().Count; got != 1 {
		t.Fatalf("circuit.open spans = %d, want 1", got)
	}
	var reduced []bool
	for _, line := range bytes.Split(log.Bytes(), []byte("\n")) {
		var ev struct {
			Msg     string
			Reduced bool
			Frames  int64
			Rounds  int64
		}
		if json.Unmarshal(line, &ev) != nil || ev.Msg != "circuit.level" {
			continue
		}
		reduced = append(reduced, ev.Reduced)
		if !ev.Reduced && (ev.Frames != 0 || ev.Rounds != 0) {
			t.Errorf("unreduced level span carries %d frames and %d rounds, want none", ev.Frames, ev.Rounds)
		}
	}
	if len(reduced) != 2 || !reduced[0] || reduced[1] {
		t.Fatalf("circuit.level spans reduced = %v, want [true false]", reduced)
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
// must cost one reshare exchange — P(P−1) frames — regardless of N, and
// the N muls of the terminal level above it none.
func TestBatchedLevelIsOneFrameExchange(t *testing.T) {
	const p, n = 4, 9
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
	// Planned frames: every round is one frame per link. The n scalar
	// inputs share in one InputBatch — each of the p owners sends p−1
	// frames — then one reshare exchange for level 1, none for level 2,
	// which is opened at the degree it has, then one batched opening.
	const owners = p // n ≥ p inputs dealt round-robin: every party owns some
	wantPlanned := int64(owners*(p-1) + p*(p-1) + p*(p-1))
	if pFrames != wantPlanned {
		t.Errorf("planned frames = %d, want %d", pFrames, wantPlanned)
	}
	// Eager frames: one Input per scalar, one reshare exchange per gate,
	// one opening exchange per output.
	wantEager := int64(n*(p-1) + 2*n*p*(p-1) + n*p*(p-1))
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
