// Package logreg implements the logistic-regression instantiation of
// SQM (§V-B) and the baselines of the paper's Figures 3 and 5:
//
//   - SQM: VFL training with the degree-2 Taylor gradient of Eq. (9),
//     distributed Skellam noise, shared-randomness Poisson batches, and
//     the accounting of Lemma 7 (subsampled RDP composed over rounds);
//   - DPSGD: the centralized baseline with the true sigmoid gradient,
//     per-record clipping and subsampled Gaussian noise;
//   - Approx-Poly: centralized training on the Taylor gradient with
//     Gaussian noise (Figure 5's ablation of the approximation);
//   - Local: Algorithm 4 perturbs the raw data, then the model is
//     fitted on the noisy database until convergence;
//   - NonPrivate: the reference model.
package logreg

import (
	"fmt"
	"math"
	"sort"

	"sqm/internal/bgw"
	"sqm/internal/core"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/vfl"
)

// Config parameterizes one private training run.
type Config struct {
	Eps   float64 // target server-observed ε
	Delta float64 // target δ
	Gamma float64 // SQM scaling parameter (SQM only)

	Epochs     int     // passes over the data; rounds R = Epochs/SampleRate
	SampleRate float64 // Poisson sampling rate q (paper: 0.001)
	LearnRate  float64 // step size on the mean gradient (0: 0.5)

	Seed uint64

	// Engine/Parties select the SQM backend (plain by default).
	Engine  core.EngineKind
	Parties int
	// Fault carries the fault-tolerance knobs (receive deadlines, dial
	// retries) down to the engine and mesh.
	Fault core.FaultConfig

	// Recorder is an optional telemetry sink threaded through to the
	// MPC engine and transport (nil disables; see core.Params.Recorder).
	Recorder obs.Recorder

	// Acct, when non-nil, receives the trainer's full subsampled
	// Skellam composition (Δ from the trainer's own sensitivity
	// analysis, R rounds at rate q) as one ledger entry. The trainer
	// accounts here rather than per round, so the core protocol's
	// generic meter stays disabled underneath it.
	Acct *dp.Accountant
}

func (c *Config) normalize() error {
	if c.Epochs < 1 {
		return fmt.Errorf("logreg: epochs must be >= 1, got %d", c.Epochs)
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("logreg: sample rate must be in (0, 1], got %v", c.SampleRate)
	}
	if mathx.EqualWithin(c.LearnRate, 0, 0) {
		c.LearnRate = 0.5
	}
	if c.LearnRate < 0 {
		return fmt.Errorf("logreg: negative learning rate %v", c.LearnRate)
	}
	return nil
}

// Rounds returns R = Epochs/q, the number of SGD rounds the epoch
// budget translates to (each Poisson batch covers q·m records in
// expectation).
func (c *Config) Rounds() int {
	r := int(math.Round(float64(c.Epochs) / c.SampleRate))
	if r < 1 {
		r = 1
	}
	return r
}

// Model is a fitted weight vector with ‖w‖₂ <= 1 (the clipping the
// paper applies after every update). The SQM trainers also return what
// they ran, so nothing outside them re-derives it: Mu is the aggregate
// Skellam parameter the run was calibrated at and booked under, and Trace
// is the session's record — the data-sharing set-up's counters plus every
// step's Stats, Compute and NoiseCompute (Scaled and Scale belong to one
// release and stay empty). The other trainers leave both zero.
type Model struct {
	W     []float64
	Mu    float64
	Trace *core.Trace
}

// PredictProb returns σ(⟨w, x⟩).
func (m *Model) PredictProb(x []float64) float64 {
	return sigmoid(linalg.Dot(m.W, x))
}

// Accuracy is the fraction of records whose 0.5-thresholded prediction
// matches the label.
func Accuracy(m *Model, x *linalg.Matrix, y []float64) float64 {
	if x.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < x.Rows; i++ {
		if (m.PredictProb(x.Row(i)) >= 0.5) == mathx.EqualWithin(y[i], 1, 0) {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows)
}

// AUC is the area under the ROC curve on (x, y) — threshold-free
// ranking quality, computed via the Mann–Whitney statistic with ties
// counted half.
func AUC(m *Model, x *linalg.Matrix, y []float64) float64 {
	type scored struct {
		p   float64
		pos bool
	}
	var items []scored
	var nPos, nNeg float64
	for i := 0; i < x.Rows; i++ {
		s := scored{p: m.PredictProb(x.Row(i)), pos: mathx.EqualWithin(y[i], 1, 0)}
		if s.pos {
			nPos++
		} else {
			nNeg++
		}
		items = append(items, s)
	}
	if mathx.EqualWithin(nPos, 0, 0) || mathx.EqualWithin(nNeg, 0, 0) {
		return 0.5
	}
	sort.Slice(items, func(i, j int) bool { return items[i].p < items[j].p })
	// Average ranks over tie groups.
	var rankSumPos float64
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && mathx.EqualWithin(items[j].p, items[i].p, 0) {
			j++
		}
		avgRank := float64(i+j+1) / 2 // 1-based average rank of the tie group
		for k := i; k < j; k++ {
			if items[k].pos {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	return (rankSumPos - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// Loss is the mean cross-entropy on (x, y).
func Loss(m *Model, x *linalg.Matrix, y []float64) float64 {
	var sum float64
	for i := 0; i < x.Rows; i++ {
		p := m.PredictProb(x.Row(i))
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		sum += -y[i]*math.Log(p) - (1-y[i])*math.Log(1-p)
	}
	return sum / float64(x.Rows)
}

func sigmoid(u float64) float64 { return 1 / (1 + math.Exp(-u)) }

// initWeights draws the random initial weights and clips them to the
// unit ball, as the paper's server does.
func initWeights(d int, g *randx.RNG) []float64 {
	w := g.GaussianVec(d, 0.1)
	linalg.ClipNorm(w, 1)
	return w
}

// Sensitivities returns Lemma 7's L2/L1 sensitivities of the quantized
// per-round gradient sum, core.LRSensitivity.
func Sensitivities(gamma float64, d int) (delta2, delta1 float64) {
	return core.LRSensitivity(gamma, d)
}

// SensitivityOverhead is Figure 4's relative L2 overhead of
// quantization: √((¾)² + 9d/γ + 36/γ²) − ¾ (the unscaled view of Δ₂).
func SensitivityOverhead(gamma float64, d int) float64 {
	return math.Sqrt(0.75*0.75+9*float64(d)/gamma+36/(gamma*gamma)) - 0.75
}

// CalibrateMu returns the minimal aggregate Skellam parameter for the
// SQM trainer to satisfy (ε, δ) over Rounds() subsampled rounds.
func CalibrateMu(cfg Config, d int) (float64, error) {
	d2, d1 := Sensitivities(cfg.Gamma, d)
	return dp.CalibrateSkellamMu(cfg.Eps, cfg.Delta, d1, d2, cfg.SampleRate, cfg.Rounds())
}

// ClientEpsilon reports the client-observed (ε, δ) over the full
// training run at noise parameter mu (Lemma 7's τ_client: subsampling
// does not amplify against clients, who know the batch membership).
func ClientEpsilon(cfg Config, d int, mu float64, numClients int) (float64, int) {
	d2, d1 := Sensitivities(cfg.Gamma, d)
	return dp.SkellamClientEpsilon(d1, d2, mu, numClients, cfg.Rounds(), cfg.Delta, dp.DefaultMaxAlpha)
}

// NoiseStdUnscaled is the per-coordinate standard deviation of the SQM
// noise after the server's down-scaling: √(2μ)/γ³. Figure 4 compares
// it against the centralized Gaussian σ.
func NoiseStdUnscaled(mu, gamma float64) float64 {
	return math.Sqrt(2*mu) / (gamma * gamma * gamma)
}

// calibrateCentral is the centralized Gaussian σ at the ¾ per-record
// bound of the Taylor gradient — Figure 4's reference line.
func calibrateCentral(cfg Config) (float64, error) {
	return dp.CalibrateGaussianSigma(cfg.Eps, cfg.Delta, 0.75, cfg.SampleRate, cfg.Rounds())
}

// CentralNoiseStd exposes calibrateCentral for the Figure 4 harness.
func CentralNoiseStd(cfg Config) (float64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	return calibrateCentral(cfg)
}

// TrainSQM fits the model under distributed DP in the VFL setting, with
// the degree-2 Taylor gradient of Eq. (9) at Lemma 7's sensitivities —
// the curve CalibrateMu solves for.
func TrainSQM(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	d2, d1 := Sensitivities(cfg.Gamma, x.Cols)
	return trainSQM(x, y, cfg, 0x5e4d, d2, d1, func(p core.Params) (*core.LRProtocol, error) {
		return core.NewLRProtocol(x, y, p)
	})
}

// TrainSQMOrder3 fits the model with the order-3 Taylor sigmoid
// σ(u) ≈ ½ + u/4 − u³/48 — the "more delicate approximation" extension
// of §V-C, implemented by core.LR3Protocol. Its degree-4 polynomial
// amplifies by γ⁵, so γ must stay moderate (≲ 2⁹ for unit-norm rows);
// the sensitivity bound is the protocol's conservative quantized-domain
// worst case.
func TrainSQMOrder3(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	d2, d1 := core.LR3Sensitivity(cfg.Gamma, x.Cols, core.DefaultLR3Precision)
	return trainSQM(x, y, cfg, 0x5e4e, d2, d1, func(p core.Params) (*core.LRProtocol, error) {
		return core.NewLR3Protocol(x, y, p, core.DefaultLR3Precision)
	})
}

// trainSQM is the SQM trainer at either Taylor order. The sensitivities
// read (γ, d) only, so μ is calibrated first and build quantizes and
// shares the data once, at the calibrated noise; every round's batch is
// drawn from the protocol's public coin.
func trainSQM(x *linalg.Matrix, y []float64, cfg Config, trainerSeed uint64, delta2, delta1 float64,
	build func(core.Params) (*core.LRProtocol, error)) (*Model, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	mu, err := cfg.calibrate(delta2, delta1)
	if err != nil {
		return nil, err
	}
	proto, err := build(core.Params{
		Gamma:    cfg.Gamma,
		Mu:       mu,
		Engine:   cfg.Engine,
		Parties:  cfg.Parties,
		Seed:     cfg.Seed,
		Recorder: cfg.Recorder,
		Fault:    cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	defer proto.Close()
	w := initWeights(x.Cols, randx.New(cfg.Seed^trainerSeed))
	return cfg.sgd(w, x.Rows, mu, proto.SetupStats(), func(_ int, w []float64) ([]float64, *core.Trace, error) {
		return proto.GradientSum(w, proto.SampleBatch(cfg.SampleRate))
	})
}

// calibrate returns the μ at which R subsampled rounds at the
// sensitivities (Δ₂, Δ₁) meet (ε, δ), and books the run under it, when
// Acct is set, as one subsampled Skellam composition. The trainers
// account here rather than per round, so core's per-release meter stays
// disabled underneath them (Params.Acct is nil).
func (c *Config) calibrate(delta2, delta1 float64) (float64, error) {
	mu, err := dp.CalibrateSkellamMu(c.Eps, c.Delta, delta1, delta2, c.SampleRate, c.Rounds())
	if err != nil {
		return 0, err
	}
	c.Acct.AddSubsampledSkellam(delta1, delta2, mu, c.SampleRate, c.Rounds())
	return mu, nil
}

// sgd is the SQM trainers' loop: R rounds of projected SGD on m records
// from w. Round r's step returns the noisy gradient sum at w and the trace
// of its release, or a nil trace for a round that released nothing (the
// GLM trainer's empty batch), which leaves w as it is. The model carries
// μ and the session's record: setup plus every step.
func (c *Config) sgd(w []float64, m int, mu float64, setup bgw.Stats,
	step func(r int, w []float64) ([]float64, *core.Trace, error)) (*Model, error) {
	rec := &core.Trace{Stats: setup}
	expBatch := c.SampleRate * float64(m)
	for r := 0; r < c.Rounds(); r++ {
		grad, tr, err := step(r, w)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			continue
		}
		addStep(rec, tr)
		linalg.Axpy(-c.LearnRate/expBatch, grad, w)
		linalg.ClipNorm(w, 1)
	}
	return &Model{W: w, Mu: mu, Trace: rec}, nil
}

// addStep adds one step's counters and clocks to the session record.
func addStep(rec, step *core.Trace) {
	rec.Stats = rec.Stats.Add(step.Stats)
	rec.Compute += step.Compute
	rec.NoiseCompute += step.NoiseCompute
}

// TrainDPSGD is the centralized baseline: true sigmoid gradients,
// per-record clipping at norm 1, Gaussian noise calibrated by the same
// subsampled-RDP accountant.
func TrainDPSGD(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	return trainCentral(x, y, cfg, 1.0, func(w, row []float64, yi float64, grad []float64) {
		linalg.Axpy(sigmoid(linalg.Dot(w, row))-yi, row, grad)
	})
}

// TrainApproxPoly is the centralized ablation of Figure 5: the Taylor
// gradient of Eq. (9) with Gaussian noise (no discretization). Its
// per-record L2 bound is ¾ (§V-B).
func TrainApproxPoly(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	return trainCentral(x, y, cfg, 0.75, func(w, row []float64, yi float64, grad []float64) {
		linalg.Axpy(0.5+linalg.Dot(w, row)/4-yi, row, grad)
	})
}

func trainCentral(x *linalg.Matrix, y []float64, cfg Config, clip float64, perRecord func(w, row []float64, yi float64, grad []float64)) (*Model, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("logreg: %d rows but %d labels", x.Rows, len(y))
	}
	sigma, err := dp.CalibrateGaussianSigma(cfg.Eps, cfg.Delta, clip, cfg.SampleRate, cfg.Rounds())
	if err != nil {
		return nil, err
	}
	g := randx.New(cfg.Seed ^ 0xd059)
	w := initWeights(x.Cols, g)
	expBatch := cfg.SampleRate * float64(x.Rows)
	one := make([]float64, x.Cols)
	for r := 0; r < cfg.Rounds(); r++ {
		batch := g.BernoulliSubset(x.Rows, cfg.SampleRate)
		grad := make([]float64, x.Cols)
		for _, i := range batch {
			for j := range one {
				one[j] = 0
			}
			perRecord(w, x.Row(i), y[i], one)
			linalg.ClipNorm(one, clip)
			linalg.Axpy(1, one, grad)
		}
		for j := range grad {
			grad[j] += g.Gaussian(0, sigma)
		}
		linalg.Axpy(-cfg.LearnRate/expBatch, grad, w)
		linalg.ClipNorm(w, 1)
	}
	return &Model{W: w}, nil
}

// TrainLocal is the VFL local-DP baseline: Algorithm 4 perturbs data
// and labels, then the server fits a model on the noisy database until
// convergence (full-batch gradient descent).
func TrainLocal(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("logreg: %d rows but %d labels", x.Rows, len(y))
	}
	// The label column is one more private attribute; bound per record
	// is √(c² + 1) with c = 1.
	sigma, err := vfl.CalibrateLocalSigma(cfg.Eps, cfg.Delta, math.Sqrt2)
	if err != nil {
		return nil, err
	}
	full := linalg.NewMatrix(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		copy(full.Row(i), x.Row(i))
		full.Set(i, x.Cols, y[i])
	}
	noisy := vfl.PerturbDataset(full, sigma, cfg.Seed^0x10c)
	nx := linalg.NewMatrix(x.Rows, x.Cols)
	ny := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		copy(nx.Row(i), noisy.Row(i)[:x.Cols])
		ny[i] = noisy.At(i, x.Cols)
	}
	return fitFullBatch(nx, ny, cfg.Seed, 300, cfg.LearnRate*4), nil
}

// TrainNonPrivate is the exact reference model.
func TrainNonPrivate(x *linalg.Matrix, y []float64, seed uint64) *Model {
	return fitFullBatch(x, y, seed, 300, 2)
}

// fitFullBatch runs plain full-batch gradient descent with unit-ball
// clipping; targets may be noisy/continuous (local baseline).
func fitFullBatch(x *linalg.Matrix, y []float64, seed uint64, epochs int, lr float64) *Model {
	g := randx.New(seed ^ 0xf17)
	w := initWeights(x.Cols, g)
	m := float64(x.Rows)
	for e := 0; e < epochs; e++ {
		grad := make([]float64, x.Cols)
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			linalg.Axpy(sigmoid(linalg.Dot(w, row))-y[i], row, grad)
		}
		linalg.Axpy(-lr/m, grad, w)
		linalg.ClipNorm(w, 1)
	}
	return &Model{W: w}
}
