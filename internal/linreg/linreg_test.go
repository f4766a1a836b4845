package linreg

import (
	"math"
	"testing"

	"sqm/internal/core"
	"sqm/internal/dataset"
	"sqm/internal/linalg"
)

func task(t *testing.T, mTrain, mTest, d int, seed uint64) *dataset.Dataset {
	t.Helper()
	return dataset.RegressionLike(mTrain, mTest, d, 0.1, seed)
}

func baseCfg() Config {
	return Config{Eps: 2, Delta: 1e-5, C: 1, B: 1, Gamma: 2048, Seed: 3}
}

func TestConfigValidation(t *testing.T) {
	ds := task(t, 20, 10, 4, 1)
	bad := baseCfg()
	bad.C = 0
	if _, err := Exact(ds.X, ds.Labels, bad); err == nil {
		t.Fatal("C=0 must be rejected")
	}
	bad = baseCfg()
	bad.B = -1
	if _, err := Central(ds.X, ds.Labels, bad); err == nil {
		t.Fatal("B<0 must be rejected")
	}
	bad = baseCfg()
	bad.Gamma = 0.5
	if _, err := SQM(ds.X, ds.Labels, bad); err == nil {
		t.Fatal("gamma<1 must be rejected")
	}
}

func TestModelMetrics(t *testing.T) {
	m := &Model{W: []float64{2, -1}}
	if got := m.Predict([]float64{3, 1}); got != 5 {
		t.Fatalf("Predict = %v", got)
	}
	x := linalg.FromRows([][]float64{{1, 0}, {0, 1}})
	y := []float64{2, -1}
	if got := MSE(m, x, y); got != 0 {
		t.Fatalf("MSE = %v", got)
	}
	if got := R2(m, x, y); got != 1 {
		t.Fatalf("R2 = %v", got)
	}
	// Constant targets: R2 defined as 0.
	if got := R2(m, x, []float64{1, 1}); got != 0 {
		t.Fatalf("R2 on constant targets = %v", got)
	}
	if got := MSE(m, linalg.NewMatrix(0, 2), nil); got != 0 {
		t.Fatalf("empty MSE = %v", got)
	}
}

func TestExactRecoversPlantedModel(t *testing.T) {
	ds := task(t, 3000, 1000, 20, 2)
	cfg := baseCfg()
	cfg.Lambda = 1 // light regularization
	m, err := Exact(ds.X, ds.Labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := R2(m, ds.TestX, ds.TestLabels); r2 < 0.6 {
		t.Fatalf("exact R2 = %v, want the planted signal recovered", r2)
	}
}

func TestSQMTracksCentralAndBeatsLocal(t *testing.T) {
	ds := task(t, 5000, 1500, 16, 3)
	var sqmR2, centralR2, localR2 float64
	const runs = 3
	for i := 0; i < runs; i++ {
		cfg := baseCfg()
		cfg.Seed = uint64(50 + i)
		s, err := SQM(ds.X, ds.Labels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Central(ds.X, ds.Labels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Local(ds.X, ds.Labels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sqmR2 += R2(s, ds.TestX, ds.TestLabels) / runs
		centralR2 += R2(c, ds.TestX, ds.TestLabels) / runs
		localR2 += R2(l, ds.TestX, ds.TestLabels) / runs
	}
	if sqmR2 < centralR2-0.1 {
		t.Fatalf("SQM R2 %v too far below central %v", sqmR2, centralR2)
	}
	if sqmR2 <= localR2 {
		t.Fatalf("SQM R2 %v must beat local %v", sqmR2, localR2)
	}
}

func TestSQMImprovesWithGamma(t *testing.T) {
	ds := task(t, 3000, 1000, 12, 4)
	var prev float64 = -10
	for _, gamma := range []float64{2, 64, 2048} {
		var r2 float64
		const runs = 3
		for i := 0; i < runs; i++ {
			cfg := baseCfg()
			cfg.Gamma = gamma
			cfg.Seed = uint64(90 + i)
			m, err := SQM(ds.X, ds.Labels, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2 += R2(m, ds.TestX, ds.TestLabels) / runs
		}
		if r2 < prev-0.05 {
			t.Fatalf("gamma=%v: R2 %v regressed from %v", gamma, r2, prev)
		}
		prev = r2
	}
}

func TestSQMPlainAndBGWAgree(t *testing.T) {
	ds := task(t, 60, 20, 5, 5)
	cfg := baseCfg()
	cfg.Eps = 8
	a, err := SQM(ds.X, ds.Labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = core.EngineBGW
	cfg.Parties = 4
	b, err := SQM(ds.X, ds.Labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.W {
		if math.Abs(a.W[j]-b.W[j]) > 1e-12 {
			t.Fatalf("coord %d: %v vs %v", j, a.W[j], b.W[j])
		}
	}
	// Both carry the one μ the augmented release was calibrated at, and
	// the record of that release: the covariance's two rounds on BGW,
	// none on plain.
	if a.Mu != b.Mu || a.Mu <= 0 || a.Trace.Stats.Rounds != 0 || b.Trace.Stats.Rounds != 2 {
		t.Fatalf("records: plain μ %v, %d rounds; bgw μ %v, %d rounds", a.Mu, a.Trace.Stats.Rounds, b.Mu, b.Trace.Stats.Rounds)
	}
}

func TestSolveRidgeEscalatesLambda(t *testing.T) {
	// Indefinite A: the escalation must eventually succeed.
	a := linalg.FromRows([][]float64{{-5, 0}, {0, -5}})
	w, err := solveRidge(a, []float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatal("malformed solution")
	}
}

func TestFromGramShapes(t *testing.T) {
	ds := task(t, 50, 10, 4, 6)
	g := augment(ds.X, ds.Labels).Gram()
	m, err := fromGram(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.W) != 4 {
		t.Fatalf("weights = %d, want d=4", len(m.W))
	}
}
