package core

import (
	"math"
	"runtime"
	"testing"
)

func TestCovarianceNoiselessMatchesGram(t *testing.T) {
	x := randMatrix(30, 5, 0.5, 20)
	c, tr, err := Covariance(x, Params{Gamma: 2048, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scale != 2048*2048 {
		t.Fatalf("Scale = %v, want γ²", tr.Scale)
	}
	truth := x.Gram()
	if diff := c.Sub(truth).MaxAbs(); diff > 0.01 {
		t.Fatalf("noiseless covariance off by %v", diff)
	}
	if !c.IsSymmetric(0) {
		t.Fatal("covariance estimate must be exactly symmetric")
	}
}

func TestCovarianceAccuracyImprovesWithGamma(t *testing.T) {
	x := randMatrix(20, 4, 0.5, 22)
	truth := x.Gram()
	prev := math.Inf(1)
	for _, gamma := range []float64{8, 64, 1024} {
		c, _, err := Covariance(x, Params{Gamma: gamma, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		diff := c.Sub(truth).FrobeniusNorm()
		if diff >= prev {
			t.Fatalf("gamma=%v: error %v did not shrink (prev %v)", gamma, diff, prev)
		}
		prev = diff
	}
}

func TestCovarianceNoiseIsSymmetricAndCalibrated(t *testing.T) {
	// Zero data ⇒ the output is the pure noise matrix: check symmetry
	// and the per-entry variance 2μ/γ⁴.
	x := randMatrix(1, 4, 0, 24) // zero matrix (scale 0)
	gamma, mu := 4.0, 1e4
	const trials = 2000
	var sumsq float64
	var count int
	for trial := 0; trial < trials; trial++ {
		c, _, err := Covariance(x, Params{Gamma: gamma, Mu: mu, NumClients: 4, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if !c.IsSymmetric(0) {
			t.Fatal("noise must be symmetric")
		}
		for a := 0; a < c.Rows; a++ {
			for b := a; b < c.Cols; b++ {
				sumsq += c.At(a, b) * c.At(a, b)
				count++
			}
		}
	}
	scale := gamma * gamma
	want := 2 * mu / (scale * scale)
	got := sumsq / float64(count)
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("noise variance = %v, want %v", got, want)
	}
}

func TestCovariancePlainAndBGWAgreeExactly(t *testing.T) {
	x := randMatrix(10, 4, 0.6, 25)
	base := Params{Gamma: 32, Mu: 100, Seed: 31}
	c1, _, err := Covariance(x, base)
	if err != nil {
		t.Fatal(err)
	}
	bg := base
	bg.Engine = EngineBGW
	bg.Parties = 4
	c2, tr2, err := Covariance(x, bg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Data {
		if c1.Data[i] != c2.Data[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, c1.Data[i], c2.Data[i])
		}
	}
	// Input and opening: the Gram products are opened unreduced. The noise
	// is not shared, but the data columns are — they are multiplied — so
	// the input round stays.
	if tr2.Stats.Rounds != 2 {
		t.Fatalf("covariance protocol should take 2 rounds, got %d", tr2.Stats.Rounds)
	}
}

func TestCovarianceBGWWithMoreParties(t *testing.T) {
	x := randMatrix(6, 3, 0.5, 26)
	for _, parties := range []int{3, 5, 7} {
		base := Params{Gamma: 16, Mu: 10, Seed: 33}
		c1, _, err := Covariance(x, base)
		if err != nil {
			t.Fatal(err)
		}
		bg := base
		bg.Engine = EngineBGW
		bg.Parties = parties
		c2, _, err := Covariance(x, bg)
		if err != nil {
			t.Fatalf("parties=%d: %v", parties, err)
		}
		for i := range c1.Data {
			if c1.Data[i] != c2.Data[i] {
				t.Fatalf("parties=%d: entry %d differs", parties, i)
			}
		}
	}
}

func TestCovarianceParallelPathDeterministic(t *testing.T) {
	// Large enough to cross the parallel threshold (rows·pairs >= 2^22):
	// int64 partial sums are exact, so worker count must not matter.
	x := randMatrix(5200, 41, 0.5, 28)
	p := Params{Gamma: 32, Mu: 50, NumClients: 41, Seed: 29}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	a, _, err := Covariance(x, p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	b, _, err := Covariance(x, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("entry %d differs across worker counts", i)
		}
	}
}

func TestCovarianceOverflowGuard(t *testing.T) {
	x := randMatrix(4, 2, 1, 27)
	if _, _, err := Covariance(x, Params{Gamma: 1e9, Seed: 1}); err != ErrFieldOverflow {
		t.Fatalf("err = %v, want ErrFieldOverflow", err)
	}
}

func BenchmarkCovariancePlain100x50(b *testing.B) {
	x := randMatrix(100, 50, 0.5, 1)
	p := Params{Gamma: 1024, Mu: 1e6, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Covariance(x, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCovarianceBGW20x10(b *testing.B) {
	x := randMatrix(20, 10, 0.5, 1)
	p := Params{Gamma: 64, Mu: 100, Engine: EngineBGW, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Covariance(x, p); err != nil {
			b.Fatal(err)
		}
	}
}
