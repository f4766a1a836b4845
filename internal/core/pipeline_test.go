package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
	"sqm/internal/obs"
	"sqm/internal/poly"
	"sqm/internal/randx"
	"sqm/internal/transport"
)

// callOrder passes every gate to the engine it wraps and writes down the
// ones that enter, multiply or open a value, in call order.
type callOrder struct {
	bgw.Evaluator
	calls []string
}

func (c *callOrder) InputVec(owner int, vs []int64) bgw.Vec {
	c.calls = append(c.calls, "InputVec")
	return c.Evaluator.InputVec(owner, vs)
}

func (c *callOrder) InputUnshared(owner int, vs []int64) bgw.Vec {
	c.calls = append(c.calls, "InputUnshared")
	return c.Evaluator.InputUnshared(owner, vs)
}

func (c *callOrder) MulBatchUnreduced(items []bgw.MulItem) []bgw.Val {
	c.calls = append(c.calls, "MulBatchUnreduced")
	return c.Evaluator.MulBatchUnreduced(items)
}

func (c *callOrder) OpenVec(v bgw.Vec) []int64 {
	c.calls = append(c.calls, "OpenVec")
	return c.Evaluator.OpenVec(v)
}

// TestCovariancePlanTakesTheNoiseAfterTheProducts: the covariance plan
// deals its columns, leaves its products unreduced, and only then joins
// the noise draw and enters every holder's vector unshared, right before
// the opening — so the draw has the whole engine phase to finish in. The
// opened triangle is the plain interpreter's.
func TestCovariancePlanTakesTheNoiseAfterTheProducts(t *testing.T) {
	const cols, holders = 5, 3
	x := randMatrix(12, cols, 0.4, 3)
	p := Params{Gamma: 16, Mu: 100, Engine: EngineActorBGW, Parties: holders, Seed: 2}
	if err := p.normalize(cols); err != nil {
		t.Fatal(err)
	}
	_, rngs := rngFamily(p.Seed, p.NumClients)
	r := p.begin(rngs)
	qd := quantizeByClient(x, &p, rngs)
	draw := r.drawNoise(cols * (cols + 1) / 2)
	defer draw.join()
	draw.booking = p.meter(CovarianceSensitivities(p.Gamma, 1, cols))
	b, outIdx := p.recordCovariance(qd, draw.holders)
	plan := b.MustCompile()
	eng, err := p.newEvaluator(0x51c0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ev := &callOrder{Evaluator: eng}
	bind := circuit.Bindings{InputVecs: func() [][]int64 {
		ev.calls = append(ev.calls, "join")
		return draw.vectors()
	}}
	res, err := plan.Execute(ev, bind)
	if err == nil {
		err = eng.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for range cols {
		want = append(want, "InputVec")
	}
	want = append(want, "MulBatchUnreduced", "join")
	for range holders {
		want = append(want, "InputUnshared")
	}
	want = append(want, "OpenVec")
	if !slices.Equal(ev.calls, want) {
		t.Fatalf("calls %v, want %v", ev.calls, want)
	}
	plain, err := plan.Plain(bind)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.OpenedVec(outIdx), plain.OpenedVec(outIdx)) {
		t.Fatalf("engine opened %v, plain %v", res.OpenedVec(outIdx), plain.OpenedVec(outIdx))
	}
}

// spanLog records every span's interval as the recorder sees its end.
type spanLog struct {
	mu    sync.Mutex
	spans map[string][]span
}

type span struct {
	start, end time.Time
	attrs      map[string]any
}

func (s *spanLog) Enabled(obs.Level) bool { return true }

func (s *spanLog) Event(_ obs.Level, name string, attrs ...obs.Attr) {
	end := time.Now()
	sp := span{end: end, attrs: make(map[string]any)}
	for _, a := range attrs {
		sp.attrs[a.Key] = a.Value()
	}
	secs, ok := sp.attrs["seconds"].(float64)
	if !ok {
		return
	}
	sp.start = end.Add(-time.Duration(secs * float64(time.Second)))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spans == nil {
		s.spans = make(map[string][]span)
	}
	s.spans[name] = append(s.spans[name], sp)
}

// reset forgets the spans recorded so far.
func (s *spanLog) reset() {
	s.mu.Lock()
	s.spans = nil
	s.mu.Unlock()
}

// TestNoiseSpanOverlapsTheEngine: a release's core.noise span runs from
// the draw's start to its join and so encloses every multiplicative
// level of the engine, under both names of the channel-mesh engine — for a
// covariance, a polynomial sum with degree-2 and degree-3 monomials, an
// LR step and an LR3 step. No engine call waits on the noise before its
// products are done, so the sampling's timing says nothing the circuit's
// shape does not (PRIVACY.md §I). The draw's own wall-clock, written at
// the join, is Trace.NoiseCompute and fits inside the span.
func TestNoiseSpanOverlapsTheEngine(t *testing.T) {
	x := randMatrix(40, 8, 0.3, 9)
	f := poly.MustMulti(
		poly.MustPolynomial(3,
			poly.Monomial{Coef: 0.5, Exps: []int{1, 1, 0}},
			poly.Monomial{Coef: -0.25, Exps: []int{1, 1, 1}},
		),
		poly.MustPolynomial(3, poly.Monomial{Coef: 1, Exps: []int{0, 0, 2}}),
	)
	feat, labels := lrTestData(24, 3, 11)
	w := []float64{0.25, -0.5, 0.125}
	batch := make([]int, feat.Rows)
	for i := range batch {
		batch[i] = i
	}
	// step runs one gradient step and, so that the set-up's input round
	// is not counted as a level, records only the step.
	step := func(order3 bool) func(Params, *spanLog) (*Trace, error) {
		return func(p Params, rec *spanLog) (*Trace, error) {
			proto, err := newGradientProtocol(order3, feat, labels, p)
			if err != nil {
				return nil, err
			}
			defer proto.Close()
			rec.reset()
			_, tr, err := proto.GradientSum(w, batch)
			return tr, err
		}
	}
	rows := []struct {
		name   string
		levels int
		run    func(Params, *spanLog) (*Trace, error)
	}{
		{"covariance", 1, func(p Params, _ *spanLog) (*Trace, error) {
			_, tr, err := Covariance(x, p)
			return tr, err
		}},
		{"polysum", 2, func(p Params, _ *spanLog) (*Trace, error) {
			_, tr, err := EvaluatePolynomialSum(f, randMatrix(30, 3, 0.4, 5), p)
			return tr, err
		}},
		{"lr", 1, step(false)},
		{"lr3", 3, step(true)},
	}
	for _, row := range rows {
		for _, kind := range []EngineKind{EngineBGW, EngineActorBGW} {
			rec := &spanLog{}
			tr, err := row.run(Params{Gamma: 16, Mu: 1e4, Engine: kind, Parties: 3, Seed: 4, Recorder: rec}, rec)
			if err != nil {
				t.Fatalf("%s on %v: %v", row.name, kind, err)
			}
			noise, levels := rec.spans["core.noise"], rec.spans["circuit.level"]
			if len(noise) != 1 || len(levels) != row.levels {
				t.Fatalf("%s on %v: %d core.noise and %d circuit.level spans, want 1 and %d", row.name, kind, len(noise), len(levels), row.levels)
			}
			n := noise[0]
			for i, l := range levels {
				if n.start.After(l.start) || l.end.After(n.end) {
					t.Errorf("%s on %v: core.noise [%v, %v] does not enclose circuit.level %d [%v, %v]", row.name, kind, n.start, n.end, i, l.start, l.end)
				}
			}
			draw, _ := n.attrs["draw_seconds"].(float64)
			if math.Abs(draw-tr.NoiseCompute.Seconds()) > 1e-9 || draw <= 0 || draw > n.attrs["seconds"].(float64) {
				t.Errorf("%s on %v: draw_seconds %v, Trace.NoiseCompute %v, span %v s", row.name, kind, draw, tr.NoiseCompute, n.attrs["seconds"])
			}
		}
	}
}

// streamsAfter is the serial path's client streams for a release of p
// over x: the next Uint64 of every client's stream after it rounds its
// columns — and, when labels is set, the last column's client its γ·y,
// as the LR protocols do — and then draws draws noise shares of dims
// entries, one after another.
func streamsAfter(p Params, x *linalg.Matrix, labels []float64, draws, dims int) []uint64 {
	_, ref := rngFamily(p.Seed, p.NumClients)
	quantizeByClient(x, &p, ref)
	if labels != nil {
		g := ref[p.clientOf(x.Cols, x.Cols+1)]
		for _, y := range labels {
			g.StochasticRound(p.Gamma * y)
		}
	}
	for range draws {
		for _, g := range ref {
			g.SkellamVec(dims, p.Mu/float64(p.NumClients))
		}
	}
	return nextOf(ref)
}

func nextOf(rngs []*randx.RNG) []uint64 {
	out := make([]uint64, len(rngs))
	for j, g := range rngs {
		out[j] = g.Uint64()
	}
	return out
}

// TestAbortJoinsNoiseDraw: a release joins its noise draw on every path —
// a session that succeeds, a covariance the field-bound check refuses
// before its draw starts, an LR3 step refused after it started, an LR3
// step whose mesh is cut during the cube's products, and a three-step LR
// run — so the goroutine count returns to its baseline and every client's
// stream stands where the serial path leaves it.
func TestAbortJoinsNoiseDraw(t *testing.T) {
	defer func(old func(int, ...transport.Option) transport.Mesh) { chanMesh = old }(chanMesh)
	healthy := chanMesh
	base := runtime.NumGoroutine()
	check := func(name string, got, want []uint64) {
		t.Helper()
		waitGoroutines(t, base)
		if !slices.Equal(got, want) {
			t.Errorf("%s: client streams continue with %x, serially %x", name, got, want)
		}
	}
	x := randMatrix(10, 4, 0.4, 5)
	pairs := x.Cols * (x.Cols + 1) / 2
	covParams := func(gamma float64) Params {
		p := Params{Gamma: gamma, Mu: 100, Engine: EngineActorBGW, Parties: 3, Seed: 6}
		if err := p.normalize(x.Cols); err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := covParams(16)
	_, rngs := rngFamily(p.Seed, p.NumClients)
	if _, _, err := p.begin(rngs).covariance(x); err != nil {
		t.Fatal(err)
	}
	check("covariance", nextOf(rngs), streamsAfter(p, x, nil, 1, pairs))

	p = covParams(1 << 31)
	_, rngs = rngFamily(p.Seed, p.NumClients)
	if _, _, err := p.begin(rngs).covariance(x); !errors.Is(err, ErrFieldOverflow) {
		t.Fatalf("refused covariance: err = %v, want ErrFieldOverflow", err)
	}
	check("refused covariance", nextOf(rngs), streamsAfter(p, x, nil, 0, pairs))

	feat, labels := lrTestData(8, 2, 7)
	w := []float64{0.25, -0.5}
	batch := []int{0, 1, 2, 3, 4, 5, 6, 7}
	lrParams := func(gamma float64) Params {
		return Params{Gamma: gamma, Mu: 100, Engine: EngineActorBGW, Parties: 3, Seed: 8,
			Fault: FaultConfig{RecvTimeout: 50 * time.Millisecond}}
	}
	// step runs steps gradient steps on a fresh protocol and returns its
	// normalized Params, its streams' next values and the last error.
	step := func(order3 bool, p Params, steps int) (Params, []uint64, error) {
		proto, err := newGradientProtocol(order3, feat, labels, p)
		if err != nil {
			t.Fatal(err)
		}
		lr := proto.(*LRProtocol)
		defer lr.Close()
		for range steps {
			if _, _, err = lr.GradientSum(w, batch); err != nil {
				break
			}
		}
		return lr.p, nextOf(lr.clientRNGs), err
	}

	np, got, err := step(true, lrParams(1<<12), 1)
	if !errors.Is(err, ErrFieldOverflow) {
		t.Fatalf("refused LR3 step: err = %v, want ErrFieldOverflow", err)
	}
	check("refused LR3 step", got, streamsAfter(np, feat, labels, 1, feat.Cols))

	var mesh *transport.FaultMesh
	chanMesh = func(n int, opts ...transport.Option) transport.Mesh {
		// Link 0→2 carries the set-up's input row and then nothing: the
		// step's first resharing frame is lost. (At P = 3, t = 1 party 1
		// draws party 0's rows, so link 0→1 carries none of them.)
		mesh = transport.NewFaultMesh(transport.NewChanMesh(n, opts...), transport.FaultProfile{
			Seed: 1, Links: map[[2]int]transport.LinkFault{{0, 2}: {CutAfter: 1}}})
		return mesh
	}
	np, got, err = step(true, lrParams(8), 1)
	if !errors.Is(err, transport.ErrTimeout) && !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("cut LR3 step: err = %v, want a typed transport error", err)
	}
	if mesh.Injected().Cuts == 0 {
		t.Fatalf("the cut missed: injected %+v", mesh.Injected())
	}
	check("cut LR3 step", got, streamsAfter(np, feat, labels, 1, feat.Cols))

	chanMesh = healthy
	np, got, err = step(false, lrParams(18), 3)
	if err != nil {
		t.Fatal(err)
	}
	check("three LR steps", got, streamsAfter(np, feat, labels, 3, feat.Cols))
}
