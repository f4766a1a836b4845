package sqm_test

import (
	"bytes"
	"math"
	"testing"

	"sqm"
)

// These tests exercise the extension surfaces of the public facade —
// marginals, accountant, model persistence, activation
// approximation — the way a downstream user would.

func TestFacadeMarginals(t *testing.T) {
	x := sqm.FromRows([][]float64{
		{1, 1, 0},
		{1, 0, 1},
		{0, 1, 1},
		{1, 1, 1},
	})
	queries := sqm.AllPairMarginals(3)
	truth, err := sqm.TrueMarginals(x, queries)
	if err != nil {
		t.Fatal(err)
	}
	if truth[0] != 2 { // (0,1): rows 0 and 3
		t.Fatalf("truth = %v", truth)
	}
	r, err := sqm.AnswerMarginals(x, queries, 8, 1e-5, 64, sqm.Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Counts) != 3 || r.Mu <= 0 {
		t.Fatalf("result = %+v", r)
	}
	for _, c := range r.Counts {
		if c < 0 || c > 4 {
			t.Fatalf("count %v escapes range", c)
		}
	}
}

func TestFacadeAccountant(t *testing.T) {
	a := sqm.NewAccountant(64)
	mu, err := sqm.CalibrateSkellamMu(1, 1e-5, 50, 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.AddSkellam(50, 50, mu)
	eps1, _ := a.Epsilon(1e-5)
	if math.Abs(eps1-1) > 0.01 {
		t.Fatalf("single release eps = %v, want ~1", eps1)
	}
	a.AddSkellam(50, 50, mu)
	eps2, _ := a.Epsilon(1e-5)
	if eps2 <= eps1 || eps2 > 2.2 {
		t.Fatalf("two releases eps = %v", eps2)
	}
	if a.Remaining(3, 1e-5) <= 0 {
		t.Fatal("budget of 3 should not be exhausted")
	}
}

func TestFacadeModelPersistence(t *testing.T) {
	ds, err := sqm.ACSIncomeLike("FL", 300, 100, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := sqm.TrainLogRegNonPrivate(ds.X, ds.Labels, 5)
	var buf bytes.Buffer
	prov := sqm.ModelProvenance{Epsilon: 1, Delta: 1e-5, Gamma: 4096}
	if err := sqm.SaveLogRegModel(&buf, m, prov); err != nil {
		t.Fatal(err)
	}
	env, err := sqm.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Provenance.Epsilon != 1 || len(env.Weights) != 10 {
		t.Fatalf("envelope = %+v", env)
	}
	restored := &sqm.LRModel{W: env.Weights}
	if got, want := sqm.LogRegAccuracy(restored, ds.TestX, ds.TestLabels),
		sqm.LogRegAccuracy(m, ds.TestX, ds.TestLabels); got != want {
		t.Fatalf("restored model predicts differently: %v vs %v", got, want)
	}
}

func TestFacadeSubspacePersistence(t *testing.T) {
	ds := sqm.KDDCupLike(200, 8, 6)
	r, err := sqm.PCAExact(ds.X, sqm.PCAConfig{K: 2, C: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sqm.SavePCASubspace(&buf, r, sqm.ModelProvenance{Note: "exact"}); err != nil {
		t.Fatal(err)
	}
	env, err := sqm.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.Subspace()
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows != 8 || v.Cols != 2 {
		t.Fatalf("subspace shape %dx%d", v.Rows, v.Cols)
	}
}

func TestFacadeApproximation(t *testing.T) {
	p, err := sqm.SigmoidTaylor(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Coefs[1] != 0.25 {
		t.Fatalf("Taylor coefs = %v", p.Coefs)
	}
	cheb, err := sqm.ChebyshevApprox(sqm.SigmoidOf, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e := cheb.SupError(sqm.SigmoidOf, 3, 512); e > 5e-3 {
		t.Fatalf("degree-5 Chebyshev sigmoid error %v", e)
	}
	if _, err := sqm.TanhTaylor(3); err != nil {
		t.Fatal(err)
	}
	if g := sqm.GELUOf(0); g != 0 {
		t.Fatalf("GELU(0) = %v", g)
	}
	up := cheb.ToUnivariatePoly()
	if up.NumVars != 1 {
		t.Fatal("conversion arity")
	}
}

func TestFacadeAudit(t *testing.T) {
	onX := func(trial int) float64 { return 0 }
	onY := func(trial int) float64 { return 10 }
	r, err := sqm.AuditEpsilon(onX, onY, sqm.AuditConfig{Trials: 1000, Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.EpsilonLower < 3 && !math.IsInf(r.EpsilonLower, 1) {
		t.Fatalf("blatant mechanism not flagged: %v", r.EpsilonLower)
	}
}

func TestFacadeRemainingWrappers(t *testing.T) {
	ds, err := sqm.ACSIncomeLike("FL", 400, 200, 10, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfgLR := sqm.LRConfig{Eps: 8, Delta: 1e-5, Gamma: 256, Epochs: 1, SampleRate: 0.05, Seed: 32}
	if _, err := sqm.TrainLogRegDPSGD(ds.X, ds.Labels, cfgLR); err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.TrainLogRegLocal(ds.X, ds.Labels, cfgLR); err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.TrainLogRegSQMOrder3(ds.X, ds.Labels, cfgLR); err != nil {
		t.Fatal(err)
	}
	link, err := sqm.SigmoidTaylor(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.TrainLogRegGLM(link, ds.X, ds.Labels, cfgLR); err != nil {
		t.Fatal(err)
	}
	pcaCfg := sqm.PCAConfig{K: 2, Eps: 2, Delta: 1e-5, C: 1, Seed: 33}
	if _, err := sqm.PCACentral(ds.X, pcaCfg); err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.PCALocal(ds.X, pcaCfg); err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.RidgeExact(ds.X, ds.Labels, sqm.RidgeConfig{C: 1, B: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.RidgeCentral(ds.X, ds.Labels, sqm.RidgeConfig{Eps: 2, Delta: 1e-5, C: 1, B: 1, Seed: 34}); err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.RidgeLocal(ds.X, ds.Labels, sqm.RidgeConfig{Eps: 2, Delta: 1e-5, C: 1, B: 1, Seed: 35}); err != nil {
		t.Fatal(err)
	}
	gene := sqm.GeneLike(50, 20, 36)
	cs := sqm.CiteSeerLike(50, 30, 37)
	if gene.Rows() != 50 || cs.Cols() != 30 {
		t.Fatal("dataset wrappers")
	}
	stream, err := sqm.NewCovarianceStream(10, sqm.Params{Gamma: 64, Seed: 38})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Add(ds.X); err != nil {
		t.Fatal(err)
	}
	if _, _, err := stream.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := sqm.MinApproxDegree(sqm.GELUOf, 2, 1e-2, 15); err != nil {
		t.Fatal(err)
	}
	if tau := sqm.SkellamRDP(4, 10, 10, 1e5); tau <= 0 {
		t.Fatal("SkellamRDP wrapper")
	}
	if tabs, err := sqm.RunExperiment("ablations", sqm.ExperimentOptions{Runs: 1, Seed: 39}); err != nil || len(tabs) != 7 {
		t.Fatalf("ablations via facade: %d tables, %v", len(tabs), err)
	}
}

// A realistic multi-release workflow: the same vertically partitioned
// database first answers a covariance release (for PCA), then trains a
// logistic model; the accountant certifies the combined budget.
func TestFacadeComposedWorkflow(t *testing.T) {
	ds, err := sqm.ACSIncomeLike("NY", 800, 400, 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	acct := sqm.NewAccountant(64)
	const (
		delta = 1e-5
		gamma = 1024.0
	)

	// Release 1: covariance at eps=1.
	d2 := gamma*gamma + float64(ds.Cols())
	mu1, err := sqm.CalibrateSkellamMu(1, delta, d2*d2, d2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sqm.Covariance(ds.X, sqm.Params{Gamma: gamma, Mu: mu1, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	acct.AddSkellam(d2*d2, d2, mu1)

	// Release 2: LR training at eps=2.
	cfg := sqm.LRConfig{Eps: 2, Delta: delta, Gamma: gamma, Epochs: 2, SampleRate: 0.02, Seed: 13}
	if _, err := sqm.TrainLogRegSQM(ds.X, ds.Labels, cfg); err != nil {
		t.Fatal(err)
	}
	// Record the training run's curve: the trainer calibrated its own
	// mu internally; reproduce it for the ledger.
	// (Sensitivities from Lemma 7 at this gamma and d.)
	acct.AddRDP(func(alpha int) float64 {
		// Conservative stand-in: the target eps=2 release at alpha.
		return 2.0 * float64(alpha) / 64
	})

	total, _ := acct.Epsilon(delta)
	if total <= 1 {
		t.Fatalf("composed budget %v must exceed the first release alone", total)
	}
	if acct.Remaining(10, delta) <= 0 {
		t.Fatalf("a 10-eps budget should survive both releases (spent %v)", total)
	}
}

func TestFacadeRidgeAndRegressionDataset(t *testing.T) {
	ds := sqm.RegressionLike(800, 200, 8, 0.1, 9)
	m, err := sqm.RidgeSQM(ds.X, ds.Labels, sqm.RidgeConfig{
		Eps: 4, Delta: 1e-5, C: 1, B: 1, Gamma: 1024, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2 := sqm.RidgeR2(m, ds.TestX, ds.TestLabels); r2 < 0.2 {
		t.Fatalf("ridge R2 = %v", r2)
	}
	if mse := sqm.RidgeMSE(m, ds.TestX, ds.TestLabels); mse <= 0 {
		t.Fatalf("MSE = %v", mse)
	}
}
