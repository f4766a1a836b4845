// Package linreg extends SQM to ridge (linear) regression — a third
// instantiation beyond the paper's PCA and logistic regression, and one
// that fits the framework *exactly*: the sufficient statistics
//
//	A = XᵀX,  b = Xᵀy
//
// are degree-2 polynomial aggregates of the record (x, y), so no Taylor
// approximation is needed. The clients run the covariance protocol of
// internal/core on the augmented matrix [X | y]; the server extracts
// (Ã, b̃) from the noisy Gram matrix and solves the ridge system
// (Ã + λI)·w = b̃. This is the distributed-DP analogue of the classic
// sufficient-statistics-perturbation mechanism, which also serves as
// the centralized baseline here.
package linreg

import (
	"fmt"
	"math"

	"sqm/internal/core"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/obs"
	"sqm/internal/pca"
	"sqm/internal/randx"
	"sqm/internal/vfl"
)

// Config parameterizes one private regression fit.
type Config struct {
	Eps   float64 // target server-observed ε
	Delta float64 // target δ
	C     float64 // per-record feature norm bound ‖x‖₂ ≤ C
	B     float64 // label magnitude bound |y| ≤ B
	Gamma float64 // SQM scaling parameter (SQM only)
	// Lambda is the ridge regularizer; it also absorbs the (slight)
	// indefiniteness the symmetric noise can introduce. 0 means 0.1·m.
	Lambda float64
	Seed   uint64

	Engine  core.EngineKind
	Parties int
	// Fault carries the fault-tolerance knobs (receive deadlines, dial
	// retries) down to the engine and mesh.
	Fault core.FaultConfig

	// Recorder is an optional telemetry sink threaded through to the
	// MPC engine and transport (nil disables; see core.Params.Recorder).
	Recorder obs.Recorder
}

func (c *Config) validate() error {
	if c.C <= 0 || c.B <= 0 {
		return fmt.Errorf("linreg: bounds must be positive (C=%v, B=%v)", c.C, c.B)
	}
	return nil
}

func (c *Config) lambda(m int) float64 {
	if c.Lambda > 0 {
		return c.Lambda
	}
	return 0.1 * float64(m)
}

// Model is a fitted linear predictor ŷ = ⟨w, x⟩. SQM also returns what
// it ran, so nothing outside it re-derives it: Mu is the aggregate Skellam
// parameter the release was calibrated at, and Trace the covariance
// release's record (rounds, frames, bytes and clocks). The other fits
// leave both zero.
type Model struct {
	W     []float64
	Mu    float64
	Trace *core.Trace
}

// Predict returns ⟨w, x⟩.
func (m *Model) Predict(x []float64) float64 { return linalg.Dot(m.W, x) }

// MSE is the mean squared error on (x, y).
func MSE(m *Model, x *linalg.Matrix, y []float64) float64 {
	if x.Rows == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < x.Rows; i++ {
		d := m.Predict(x.Row(i)) - y[i]
		sum += d * d
	}
	return sum / float64(x.Rows)
}

// R2 is the coefficient of determination on (x, y).
func R2(m *Model, x *linalg.Matrix, y []float64) float64 {
	if x.Rows == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := 0; i < x.Rows; i++ {
		d := m.Predict(x.Row(i)) - y[i]
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if mathx.EqualWithin(ssTot, 0, 0) {
		return 0
	}
	return 1 - ssRes/ssTot
}

// augment stacks the label as one more column: the vertical partition
// where the label owner is simply the (d+1)-th client.
func augment(x *linalg.Matrix, y []float64) *linalg.Matrix {
	out := linalg.NewMatrix(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), x.Row(i))
		out.Set(i, x.Cols, y[i])
	}
	return out
}

// solveRidge solves (A + λI)w = b, escalating λ if the noisy A is not
// positive definite.
func solveRidge(a *linalg.Matrix, b []float64, lambda float64) ([]float64, error) {
	for attempt := 0; attempt < 8; attempt++ {
		w, err := linalg.SolveSPD(a.AddDiagonal(lambda), b)
		if err == nil {
			return w, nil
		}
		lambda *= 10
	}
	return nil, fmt.Errorf("linreg: system stayed indefinite up to lambda=%v", lambda)
}

// fromGram extracts (A, b) from the Gram matrix of [X | y] and solves
// the ridge system.
func fromGram(g *linalg.Matrix, lambda float64) (*Model, error) {
	d := g.Rows - 1
	a := linalg.NewMatrix(d, d)
	b := make([]float64, d)
	for i := 0; i < d; i++ {
		copy(a.Row(i), g.Row(i)[:d])
		b[i] = g.At(i, d)
	}
	w, err := solveRidge(a, b, lambda)
	if err != nil {
		return nil, err
	}
	return &Model{W: w}, nil
}

// Exact is the non-private ridge fit.
func Exact(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return fromGram(augment(x, y).Gram(), cfg.lambda(x.Rows))
}

// SQM fits the model under distributed DP: the covariance protocol on
// the augmented matrix with Lemma 5's sensitivities at the augmented
// norm bound √(C² + B²).
func SQM(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Gamma < 1 {
		return nil, fmt.Errorf("linreg: SQM needs gamma >= 1, got %v", cfg.Gamma)
	}
	full := augment(x, y)
	cAug := math.Sqrt(cfg.C*cfg.C + cfg.B*cfg.B)
	mu, err := pca.CalibrateMu(cfg.Eps, cfg.Delta, cfg.Gamma, cAug, full.Cols)
	if err != nil {
		return nil, err
	}
	gram, tr, err := core.Covariance(full, core.Params{
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
	m, err := fromGram(gram, cfg.lambda(x.Rows))
	if err != nil {
		return nil, err
	}
	m.Mu, m.Trace = mu, tr
	return m, nil
}

// Central is the centralized sufficient-statistics-perturbation
// baseline: symmetric Gaussian noise on the Gram of [X | y], sensitivity
// C² + B².
func Central(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sigma, err := dp.AnalyticGaussianSigma(cfg.Eps, cfg.Delta, cfg.C*cfg.C+cfg.B*cfg.B)
	if err != nil {
		return nil, err
	}
	g := augment(x, y).Gram()
	rng := randx.New(cfg.Seed ^ 0x1149)
	for a := 0; a < g.Rows; a++ {
		for b := a; b < g.Cols; b++ {
			z := rng.Gaussian(0, sigma)
			g.Set(a, b, g.At(a, b)+z)
			if a != b {
				g.Set(b, a, g.At(a, b))
			}
		}
	}
	return fromGram(g, cfg.lambda(x.Rows))
}

// Local is the VFL local-DP baseline: Algorithm 4 on [X | y], then an
// exact ridge fit on the noisy database.
func Local(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cAug := math.Sqrt(cfg.C*cfg.C + cfg.B*cfg.B)
	sigma, err := vfl.CalibrateLocalSigma(cfg.Eps, cfg.Delta, cAug)
	if err != nil {
		return nil, err
	}
	noisy := vfl.PerturbDataset(augment(x, y), sigma, cfg.Seed^0x10ca2)
	return fromGram(noisy.Gram(), cfg.lambda(x.Rows))
}
