package pca

import (
	"math"
	"testing"

	"sqm/internal/core"
	"sqm/internal/dataset"
	"sqm/internal/linalg"
)

func testData(m, n int, seed uint64) *linalg.Matrix {
	return dataset.KDDCupLike(m, n, seed).X
}

func TestConfigValidation(t *testing.T) {
	x := testData(20, 5, 1)
	if _, err := Exact(x, Config{K: 0, C: 1}); err == nil {
		t.Fatal("K=0 must be rejected")
	}
	if _, err := Exact(x, Config{K: 2, C: 0}); err == nil {
		t.Fatal("C=0 must be rejected")
	}
	if _, err := SQM(x, Config{K: 2, C: 1, Eps: 1, Delta: 1e-5, Gamma: 0.5}); err == nil {
		t.Fatal("gamma < 1 must be rejected")
	}
}

func TestExactCapturesTopVariance(t *testing.T) {
	x := testData(300, 12, 2)
	r, err := Exact(x, Config{K: 3, C: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eig := linalg.SymEigen(x.Gram())
	want := eig.Values[0] + eig.Values[1] + eig.Values[2]
	if math.Abs(r.Utility-want) > 1e-6*want {
		t.Fatalf("utility = %v, want top-3 eigensum %v", r.Utility, want)
	}
	// Subspace is orthonormal.
	g := r.Subspace.T().Mul(r.Subspace)
	if diff := g.Sub(linalg.Identity(3)).FrobeniusNorm(); diff > 1e-8 {
		t.Fatalf("VᵀV off identity by %v", diff)
	}
}

func TestSensitivitiesLemma5(t *testing.T) {
	d2, d1 := Sensitivities(16, 1, 10)
	if d2 != 16*16+10 {
		t.Fatalf("Delta2 = %v", d2)
	}
	if want := math.Min(d2*d2, 10*d2); d1 != want {
		t.Fatalf("Delta1 = %v, want %v", d1, want)
	}
}

func TestCalibrateMuTightens(t *testing.T) {
	// Larger eps needs less noise.
	muTight, err := CalibrateMu(0.5, 1e-5, 64, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	muLoose, err := CalibrateMu(4, 1e-5, 64, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if muLoose >= muTight {
		t.Fatalf("mu(eps=4)=%v should be below mu(eps=0.5)=%v", muLoose, muTight)
	}
}

func TestClientEpsilonWeakerThanServer(t *testing.T) {
	mu, err := CalibrateMu(1, 1e-5, 64, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	cEps, _ := ClientEpsilon(mu, 64, 1, 10, 10, 1e-5)
	if cEps <= 1 {
		t.Fatalf("client-observed eps %v should exceed the server target 1", cEps)
	}
	// More clients → closer to the server guarantee.
	cEps100, _ := ClientEpsilon(mu, 64, 1, 10, 100, 1e-5)
	if cEps100 >= cEps {
		t.Fatal("client eps should improve with more clients")
	}
}

func TestSQMApproachesExactForLargeEps(t *testing.T) {
	x := testData(2000, 15, 4)
	exact, err := Exact(x, Config{K: 3, C: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := SQM(x, Config{K: 3, C: 1, Eps: 32, Delta: 1e-5, Gamma: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mu <= 0 {
		t.Fatal("calibrated mu must be positive")
	}
	if r.Utility < 0.9*exact.Utility {
		t.Fatalf("SQM utility %v too far below exact %v at eps=32", r.Utility, exact.Utility)
	}
}

func TestOrderingSQMBetweenCentralAndLocal(t *testing.T) {
	// The paper's headline (Figure 2): central >= SQM >> local, with
	// SQM close to central for large gamma.
	x := testData(3000, 16, 6)
	cfgBase := Config{K: 4, C: 1, Eps: 2, Delta: 1e-5, Seed: 7}
	exact, err := Exact(x, cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	var centralU, sqmU, localU float64
	const runs = 5
	for i := 0; i < runs; i++ {
		cfg := cfgBase
		cfg.Seed = uint64(100 + i)
		c, err := Central(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Gamma = 1024
		s, err := SQM(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Local(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		centralU += c.Utility / runs
		sqmU += s.Utility / runs
		localU += l.Utility / runs
	}
	if sqmU < 0.8*centralU {
		t.Fatalf("SQM %v too far below central %v", sqmU, centralU)
	}
	if sqmU <= localU {
		t.Fatalf("SQM %v must beat local %v", sqmU, localU)
	}
	if localU >= 0.95*exact.Utility && sqmU >= 0.95*exact.Utility {
		t.Skip("task too easy to separate mechanisms; acceptable but uninformative")
	}
}

func TestSQMUtilityImprovesWithGamma(t *testing.T) {
	// Finer quantization (larger gamma) must not hurt; with a small
	// gamma the sensitivity overhead n dominates and utility drops.
	x := testData(2000, 20, 8)
	var prev float64
	for _, gamma := range []float64{2, 64, 2048} {
		var u float64
		const runs = 4
		for i := 0; i < runs; i++ {
			r, err := SQM(x, Config{K: 3, C: 1, Eps: 1, Delta: 1e-5, Gamma: gamma, Seed: uint64(200 + i)})
			if err != nil {
				t.Fatal(err)
			}
			u += r.Utility / runs
		}
		if u < prev*0.98 { // allow small monte-carlo wiggle
			t.Fatalf("gamma=%v: utility %v regressed from %v", gamma, u, prev)
		}
		prev = u
	}
}

func TestLocalDegradesGracefully(t *testing.T) {
	x := testData(500, 10, 9)
	r, err := Local(x, Config{K: 2, C: 1, Eps: 1, Delta: 1e-5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sigma <= 0 {
		t.Fatal("local baseline must report its noise scale")
	}
	exact, err := Exact(x, Config{K: 2, C: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Utility > exact.Utility+1e-9 {
		t.Fatal("no mechanism can beat the exact subspace")
	}
}

func TestSQMWithBGWEngineMatchesPlain(t *testing.T) {
	x := testData(40, 6, 12)
	cfg := Config{K: 2, C: 1, Eps: 4, Delta: 1e-5, Gamma: 64, Seed: 13}
	plain, err := SQM(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = core.EngineBGW
	cfg.Parties = 4
	mpc, err := SQM(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Utility-mpc.Utility) > 1e-9*(1+plain.Utility) {
		t.Fatalf("plain %v vs BGW %v", plain.Utility, mpc.Utility)
	}
	// Input and opening (the Gram level is terminal). The noise is not
	// shared, but the input round stays: it carries the data columns.
	if mpc.Trace.Stats.Rounds != 2 {
		t.Fatalf("BGW rounds = %d, want 2", mpc.Trace.Stats.Rounds)
	}
}

func TestSQMWithPSDProjection(t *testing.T) {
	// At small eps the noisy covariance is indefinite; the projection
	// must not hurt (and typically helps) while keeping validity.
	x := testData(800, 12, 16)
	var plain, projected float64
	const runs = 4
	for i := 0; i < runs; i++ {
		cfg := Config{K: 3, C: 1, Eps: 0.25, Delta: 1e-5, Gamma: 256, Seed: uint64(300 + i)}
		a, err := SQM(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ProjectPSD = true
		b, err := SQM(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain += a.Utility / runs
		projected += b.Utility / runs
	}
	if projected < plain*0.9 {
		t.Fatalf("PSD projection hurt badly: %v vs %v", projected, plain)
	}
	exact, err := Exact(x, Config{K: 3, C: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if projected > exact.Utility+1e-9 {
		t.Fatal("projection cannot beat the exact subspace")
	}
}

func TestTopKLargeNUsesSubspaceIteration(t *testing.T) {
	// n > 300 path: verify against the small-n solver on a matrix that
	// has both code paths available via padding.
	d := dataset.GeneLike(120, 320, 14)
	r, err := Exact(d.X, Config{K: 4, C: 1, Seed: 15, TopKIters: 120})
	if err != nil {
		t.Fatal(err)
	}
	eig := linalg.SymEigen(d.X.Gram())
	want := eig.Values[0] + eig.Values[1] + eig.Values[2] + eig.Values[3]
	if math.Abs(r.Utility-want) > 1e-3*want {
		t.Fatalf("subspace iteration utility %v, want %v", r.Utility, want)
	}
}
