package core

import (
	"math"
	"testing"

	"sqm/internal/linalg"
	"sqm/internal/randx"
)

// lrTestData builds a small synthetic LR dataset with unit-norm rows.
func lrTestData(m, d int, seed uint64) (*linalg.Matrix, []float64) {
	g := randx.New(seed)
	x := linalg.NewMatrix(m, d)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = g.Gaussian(0, 1)
		}
		linalg.ClipNorm(row, 1)
		if g.Bernoulli(0.5) {
			y[i] = 1
		}
	}
	return x, y
}

// approxGradient is the Taylor-approximated gradient of Eq. (9),
// computed directly in float64.
func approxGradient(x *linalg.Matrix, y []float64, w []float64, batch []int) []float64 {
	grad := make([]float64, x.Cols)
	for _, i := range batch {
		row := x.Row(i)
		s := 0.5 + linalg.Dot(w, row)/4 - y[i]
		for t, v := range row {
			grad[t] += v * s
		}
	}
	return grad
}

func TestLRProtocolValidation(t *testing.T) {
	x, y := lrTestData(10, 4, 1)
	if _, err := NewLRProtocol(x, y[:5], Params{Gamma: 64}); err == nil {
		t.Fatal("row/label mismatch must be rejected")
	}
	if _, err := NewLRProtocol(x, y, Params{Gamma: 64.5}); err == nil {
		t.Fatal("non-integer gamma must be rejected")
	}
	bad := append([]float64(nil), y...)
	bad[0] = 0.5
	if _, err := NewLRProtocol(x, bad, Params{Gamma: 64}); err == nil {
		t.Fatal("non-binary label must be rejected")
	}
	lr, err := NewLRProtocol(x, y, Params{Gamma: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lr.GradientSum(make([]float64, 3), []int{0}); err == nil {
		t.Fatal("wrong weight dimension must be rejected")
	}
	if lr.NumRecords() != 10 {
		t.Fatalf("NumRecords = %d", lr.NumRecords())
	}
}

func TestLRGradientNoiselessMatchesApproxGradient(t *testing.T) {
	x, y := lrTestData(50, 6, 2)
	lr, err := NewLRProtocol(x, y, Params{Gamma: 4096, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := randx.New(9)
	w := g.GaussianVec(6, 0.3)
	linalg.ClipNorm(w, 1)
	batch := []int{0, 3, 7, 11, 42}
	got, tr, err := lr.GradientSum(w, batch)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scale != math.Pow(4096, 3) {
		t.Fatalf("Scale = %v", tr.Scale)
	}
	want := approxGradient(x, y, w, batch)
	for t2 := range want {
		if e := math.Abs(got[t2] - want[t2]); e > 0.01 {
			t.Fatalf("coord %d: |%v − %v| = %v", t2, got[t2], want[t2], e)
		}
	}
}

func TestLRGradientAccuracyImprovesWithGamma(t *testing.T) {
	x, y := lrTestData(30, 4, 4)
	g := randx.New(11)
	w := g.GaussianVec(4, 0.3)
	linalg.ClipNorm(w, 1)
	batch := []int{1, 5, 9, 13}
	want := approxGradient(x, y, w, batch)
	prev := math.Inf(1)
	for _, gamma := range []float64{16, 256, 4096} {
		lr, err := NewLRProtocol(x, y, Params{Gamma: gamma, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := lr.GradientSum(w, batch)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for t2 := range want {
			if e := math.Abs(got[t2] - want[t2]); e > worst {
				worst = e
			}
		}
		if worst >= prev {
			t.Fatalf("gamma=%v: error %v did not shrink (prev %v)", gamma, worst, prev)
		}
		prev = worst
	}
}

func TestLRGradientNoiseVariance(t *testing.T) {
	// Empty batch ⇒ output is pure noise with variance 2μ/γ⁶ per
	// coordinate.
	x, y := lrTestData(5, 3, 6)
	gamma, mu := 8.0, 1e6
	const trials = 4000
	var sumsq float64
	for trial := 0; trial < trials; trial++ {
		lr, err := NewLRProtocol(x, y, Params{Gamma: gamma, Mu: mu, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := lr.GradientSum([]float64{0.1, -0.2, 0.3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			sumsq += v * v
		}
	}
	scale := math.Pow(gamma, 3)
	want := 2 * mu / (scale * scale)
	got := sumsq / float64(trials*3)
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("noise variance = %v, want %v", got, want)
	}
}

func TestLRPlainAndBGWAgreeExactly(t *testing.T) {
	x, y := lrTestData(20, 5, 7)
	base := Params{Gamma: 64, Mu: 25, Seed: 41}
	lr1, err := NewLRProtocol(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	bg := base
	bg.Engine = EngineBGW
	bg.Parties = 4
	lr2, err := NewLRProtocol(x, y, bg)
	if err != nil {
		t.Fatal(err)
	}
	g := randx.New(17)
	w := g.GaussianVec(5, 0.3)
	batch := []int{2, 4, 8, 16}
	g1, tr1, err := lr1.GradientSum(w, batch)
	if err != nil {
		t.Fatal(err)
	}
	g2, tr2, err := lr2.GradientSum(w, batch)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range g1 {
		if tr1.Scaled[t2] != tr2.Scaled[t2] || g1[t2] != g2[t2] {
			t.Fatalf("coord %d: plain %d vs BGW %d", t2, tr1.Scaled[t2], tr2.Scaled[t2])
		}
	}
	// The opening alone: the d dot products are opened unreduced and the
	// noise rides the opening unshared.
	if tr2.Stats.Rounds != 1 {
		t.Fatalf("one SGD round should cost 1 communication round, got %d", tr2.Stats.Rounds)
	}
	if lr2.SetupStats().Rounds != 1 {
		t.Fatalf("setup should cost 1 round, got %d", lr2.SetupStats().Rounds)
	}
	if lr1.SetupStats().Rounds != 0 {
		t.Fatal("plain engine has no setup rounds")
	}
}

func TestLRMultipleRoundsKeepAgreement(t *testing.T) {
	// Shares are reused across SGD rounds; run three rounds on both
	// engines and compare every output.
	x, y := lrTestData(15, 3, 8)
	base := Params{Gamma: 32, Mu: 16, Seed: 51}
	lr1, err := NewLRProtocol(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	bg := base
	bg.Engine = EngineBGW
	lr2, err := NewLRProtocol(x, y, bg)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.2, -0.1, 0.4}
	for round := 0; round < 3; round++ {
		b1 := lr1.SampleBatch(0.5)
		b2 := lr2.SampleBatch(0.5)
		if len(b1) != len(b2) {
			t.Fatal("shared-randomness batches must agree for equal seeds")
		}
		g1, _, err := lr1.GradientSum(w, b1)
		if err != nil {
			t.Fatal(err)
		}
		g2, _, err := lr2.GradientSum(w, b2)
		if err != nil {
			t.Fatal(err)
		}
		for t2 := range g1 {
			if g1[t2] != g2[t2] {
				t.Fatalf("round %d coord %d differs", round, t2)
			}
		}
	}
}

func TestLROverflowGuard(t *testing.T) {
	x, y := lrTestData(10, 4, 9)
	lr, err := NewLRProtocol(x, y, Params{Gamma: 1 << 19, Mu: 1e36, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lr.GradientSum(make([]float64, 4), []int{0, 1}); err != ErrFieldOverflow {
		t.Fatalf("err = %v, want ErrFieldOverflow", err)
	}
}

func BenchmarkLRGradientPlain(b *testing.B) {
	x, y := lrTestData(1000, 100, 1)
	lr, err := NewLRProtocol(x, y, Params{Gamma: 8192, Mu: 1e10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, 100)
	batch := make([]int, 100)
	for i := range batch {
		batch[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lr.GradientSum(w, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRGradientBGW(b *testing.B) {
	x, y := lrTestData(200, 50, 1)
	lr, err := NewLRProtocol(x, y, Params{Gamma: 256, Mu: 1e4, Engine: EngineBGW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, 50)
	batch := []int{0, 10, 20, 30, 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lr.GradientSum(w, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGradientPlanBuild records and compiles a gradient circuit,
// which every step of an LR session does: order 1 at the lr_chan shape
// (B = 200 records, d = 50 features, one client per column), 3d + parties
// nodes or so whatever B is, where the per-record circuit it replaced was
// ~36 k; order 3 at the lr3_tcp shape (B = 100, d = 20), whose cube is two
// Hadamard gates whatever B is. ns/op divided by the reported nodes/op is
// the per-node cost.
func BenchmarkGradientPlanBuild(b *testing.B) {
	for _, c := range []struct {
		name     string
		batch, d int
		order3   bool
	}{{"order1", 200, 50, false}, {"order3", 100, 20, true}} {
		b.Run(c.name, func(b *testing.B) {
			p := Params{Gamma: 18, Mu: 1e4, Engine: EngineBGW, Seed: 1}
			if err := p.normalize(c.d + 1); err != nil {
				b.Fatal(err)
			}
			_, clientRNGs := rngFamily(p.Seed, p.NumClients)
			holders := p.begin(clientRNGs).holders()
			co := testCoefs(c.d, c.order3)
			b.ReportAllocs()
			b.ResetTimer()
			var nodes int
			for i := 0; i < b.N; i++ {
				plan, _, err := recordGradient(&p, c.d, c.batch, holders, co.gate)
				if err != nil {
					b.Fatal(err)
				}
				nodes = plan.Gates()
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// testCoefs returns coefficients of the shape an order-1 or order-3 step
// records over d features; their values do not change the circuit.
func testCoefs(d int, order3 bool) coefs {
	c := coefs{lin: make([]int64, d), half: 1, label: 1}
	if order3 {
		c.cube = make([]int64, d)
	}
	for j := range c.lin {
		c.lin[j] = int64(j + 1)
		if order3 {
			c.cube[j] = int64(d - j)
		}
	}
	return c
}
