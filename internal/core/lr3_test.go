package core

import (
	"math"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/linalg"
	"sqm/internal/randx"
)

// approxGradient3 is the order-3 Taylor gradient in float64.
func approxGradient3(x *linalg.Matrix, y []float64, w []float64, batch []int) []float64 {
	grad := make([]float64, x.Cols)
	for _, i := range batch {
		row := x.Row(i)
		s := linalg.Dot(w, row)
		u := 0.5 + s/4 - s*s*s/48 - y[i]
		for t, v := range row {
			grad[t] += v * u
		}
	}
	return grad
}

func TestLR3Validation(t *testing.T) {
	x, y := lrTestData(10, 4, 1)
	if _, err := NewLR3Protocol(x, y[:5], Params{Gamma: 64}, 0); err == nil {
		t.Fatal("row/label mismatch must be rejected")
	}
	if _, err := NewLR3Protocol(x, y, Params{Gamma: 64.5}, 0); err == nil {
		t.Fatal("non-integer gamma must be rejected")
	}
	if _, err := NewLR3Protocol(x, y, Params{Gamma: 64}, -1); err == nil {
		t.Fatal("negative precision must be rejected")
	}
	bad := append([]float64(nil), y...)
	bad[0] = 2
	if _, err := NewLR3Protocol(x, bad, Params{Gamma: 64}, 0); err == nil {
		t.Fatal("non-binary label must be rejected")
	}
	lr, err := NewLR3Protocol(x, y, Params{Gamma: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lr.GradientSum(make([]float64, 3), []int{0}); err == nil {
		t.Fatal("wrong weight dim must be rejected")
	}
}

func TestLR3Scale(t *testing.T) {
	x, y := lrTestData(5, 3, 2)
	lr, err := NewLR3Protocol(x, y, Params{Gamma: 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lr.Scale(), 8*math.Pow(16, 5); got != want {
		t.Fatalf("Scale = %v, want %v", got, want)
	}
}

func TestLR3NoiselessMatchesCubicGradient(t *testing.T) {
	x, y := lrTestData(40, 6, 3)
	lr, err := NewLR3Protocol(x, y, Params{Gamma: 256, Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := randx.New(9)
	w := g.GaussianVec(6, 0.3)
	linalg.ClipNorm(w, 1)
	batch := []int{0, 5, 9, 20, 33}
	got, tr, err := lr.GradientSum(w, batch)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scale != lr.Scale() {
		t.Fatal("trace scale mismatch")
	}
	want := approxGradient3(x, y, w, batch)
	for t2 := range want {
		// The cube term's coefficients quantize coarsely (spread over
		// three factors), so tolerance is looser than order 1.
		if e := math.Abs(got[t2] - want[t2]); e > 0.05 {
			t.Fatalf("coord %d: |%v − %v| = %v", t2, got[t2], want[t2], e)
		}
	}
}

func TestLR3AccuracyImprovesWithGamma(t *testing.T) {
	x, y := lrTestData(30, 4, 5)
	g := randx.New(11)
	w := g.GaussianVec(4, 0.3)
	linalg.ClipNorm(w, 1)
	batch := []int{1, 4, 9, 16}
	want := approxGradient3(x, y, w, batch)
	prev := math.Inf(1)
	for _, gamma := range []float64{16, 64, 256} {
		lr, err := NewLR3Protocol(x, y, Params{Gamma: gamma, Seed: 6}, 0)
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

func TestLR3PlainAndBGWAgree(t *testing.T) {
	x, y := lrTestData(15, 4, 7)
	base := Params{Gamma: 64, Mu: 25, Seed: 41}
	a, err := NewLR3Protocol(x, y, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	bg := base
	bg.Engine = EngineBGW
	b, err := NewLR3Protocol(x, y, bg, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := randx.New(17)
	w := g.GaussianVec(4, 0.3)
	batch := []int{0, 3, 7, 11}
	g1, tr1, err := a.GradientSum(w, batch)
	if err != nil {
		t.Fatal(err)
	}
	g2, tr2, err := b.GradientSum(w, batch)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range g1 {
		if tr1.Scaled[t2] != tr2.Scaled[t2] || g1[t2] != g2[t2] {
			t.Fatalf("coord %d: plain %d vs BGW %d", t2, tr1.Scaled[t2], tr2.Scaled[t2])
		}
	}
	// Two cube rounds + output: the fused inner products are the terminal
	// level and are opened unreduced, and the noise rides the opening
	// unshared.
	if tr2.Stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", tr2.Stats.Rounds)
	}
}

func TestLR3NoiseVariance(t *testing.T) {
	x, y := lrTestData(5, 3, 8)
	gamma, mu := 16.0, 1e8
	const trials = 3000
	var sumsq float64
	for trial := 0; trial < trials; trial++ {
		lr, err := NewLR3Protocol(x, y, Params{Gamma: gamma, Mu: mu, Seed: uint64(trial)}, 2)
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
	scale := 8 * math.Pow(gamma, 5)
	want := 2 * mu / (scale * scale)
	got := sumsq / float64(trials*3)
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("noise variance = %v, want %v", got, want)
	}
}

func TestLR3OverflowGuardAtLargeGamma(t *testing.T) {
	x, y := lrTestData(10, 4, 9)
	lr, err := NewLR3Protocol(x, y, Params{Gamma: 1 << 12, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// γ⁵·k³ = 2^60·2^9 wildly exceeds the field.
	if _, _, err := lr.GradientSum(make([]float64, 4), []int{0, 1}); err != ErrFieldOverflow {
		t.Fatalf("err = %v, want ErrFieldOverflow", err)
	}
}

func TestLR3SensitivityDominatesLeadingTerm(t *testing.T) {
	x, y := lrTestData(5, 8, 10)
	lr, err := NewLR3Protocol(x, y, Params{Gamma: 128}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, d1 := lr.Sensitivity()
	lead := 0.75 * lr.Scale() // ¾·k³γ⁵, the order-1 analogue
	if d2 < lead {
		t.Fatalf("Delta2 = %v below the leading term %v", d2, lead)
	}
	if d1 > d2*d2+1 {
		t.Fatalf("Delta1 = %v inconsistent with Delta2 = %v", d1, d2)
	}
}

// TestLR3SensitivityFunctionIsTheMethod holds the data-free bound to the
// protocol's method bit for bit, and both to the bits the method returned
// before the bound moved out of it (the first row is the lr3_tcp shape
// dp.TestCalibrateSkellamMuPinnedOnBenchmarkLR calibrates on).
func TestLR3SensitivityFunctionIsTheMethod(t *testing.T) {
	for _, tc := range []struct {
		gamma          float64
		d              int
		k              int64
		delta2, delta1 uint64
	}{
		{8, 20, 8, 0x419098c33cf0cbe2, 0x41b28e42d4420904},
		{128, 8, 8, 0x42bd8e4acc4c6a7d, 0x42d4e62d2fae6a63},
		{16, 1, 2, 0x41709f4e388b9b1f, 0x41709f4e388b9b1f},
		{256, 50, 1, 0x42932f929110579a, 0x42c0f541ff222f89},
		{64, 7, 3, 0x422ae6441800d0c4, 0x4241cad639bfb951},
	} {
		x, y := lrTestData(5, tc.d, 10)
		lr, err := NewLR3Protocol(x, y, Params{Gamma: tc.gamma}, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		m2, m1 := lr.Sensitivity()
		f2, f1 := LR3Sensitivity(tc.gamma, tc.d, tc.k)
		for _, v := range []struct {
			name      string
			got, want uint64
		}{
			{"method Δ₂", math.Float64bits(m2), tc.delta2}, {"method Δ₁", math.Float64bits(m1), tc.delta1},
			{"function Δ₂", math.Float64bits(f2), tc.delta2}, {"function Δ₁", math.Float64bits(f1), tc.delta1},
		} {
			if v.got != v.want {
				t.Errorf("γ=%v d=%d k=%d: %s = %#x, want %#x", tc.gamma, tc.d, tc.k, v.name, v.got, v.want)
			}
		}
	}
	// Precision 0 is the constructor's default.
	x, y := lrTestData(5, 20, 10)
	lr, err := NewLR3Protocol(x, y, Params{Gamma: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, m1 := lr.Sensitivity()
	f2, f1 := LR3Sensitivity(8, 20, DefaultLR3Precision)
	if math.Float64bits(m2) != math.Float64bits(f2) || math.Float64bits(m1) != math.Float64bits(f1) {
		t.Fatalf("default precision: method (%v, %v), function (%v, %v)", m2, m1, f2, f1)
	}
}

// TestLR3PlannedRoundsIndependentOfBatch is the scheduler's acceptance
// gate on the cube circuit: for any batch size B, planned execution
// over the actor engine must run exactly five wire rounds (input,
// square, cube, fused inner product, output — i.e. multiplicative
// depth plus input and output rounds) and the same number of frames,
// because every level travels as one batched exchange. Outputs must
// stay bit-identical to the plain engine.
func TestLR3PlannedRoundsIndependentOfBatch(t *testing.T) {
	x, y := lrTestData(16, 3, 9)
	base := Params{Gamma: 16, Mu: 20, Seed: 23}
	g := randx.New(29)
	w := g.GaussianVec(3, 0.3)

	run := func(kind EngineKind, parties int, batch []int) ([]int64, bgw.Stats) {
		t.Helper()
		p := base
		p.Engine = kind
		p.Parties = parties
		proto, err := NewLR3Protocol(x, y, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer proto.Close()
		_, tr, err := proto.GradientSum(w, batch)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Scaled, tr.Stats
	}

	small := []int{1, 4}
	large := []int{0, 2, 5, 7, 9, 11}

	plainSmall, _ := run(EnginePlain, 0, small)
	plainLarge, _ := run(EnginePlain, 0, large)
	actorSmall, stSmall := run(EngineActorBGW, 4, small)
	actorLarge, stLarge := run(EngineActorBGW, 4, large)

	for d := range plainSmall {
		if actorSmall[d] != plainSmall[d] {
			t.Errorf("B=2 dim %d: actor %d != plain %d", d, actorSmall[d], plainSmall[d])
		}
		if actorLarge[d] != plainLarge[d] {
			t.Errorf("B=6 dim %d: actor %d != plain %d", d, actorLarge[d], plainLarge[d])
		}
	}
	if stSmall.Rounds != 3 || stLarge.Rounds != 3 {
		t.Errorf("rounds: B=2 %d, B=6 %d, want 3 and 3", stSmall.Rounds, stLarge.Rounds)
	}
	if stSmall.Frames != stLarge.Frames {
		t.Errorf("frames depend on batch size: B=2 %d, B=6 %d", stSmall.Frames, stLarge.Frames)
	}
	if stSmall.Frames == 0 {
		t.Error("frames not metered")
	}
	if stSmall.Messages >= stLarge.Messages {
		t.Errorf("logical messages should grow with B: B=2 %d, B=6 %d", stSmall.Messages, stLarge.Messages)
	}
}
