// Package pca implements the principal-component-analysis instantiation
// of SQM (§V-A) and the two baselines of the paper's Figure 2:
//
//   - SQM: distributed DP via the quantized covariance protocol of
//     package core, with the sensitivities of Lemma 5
//     (Δ₂ = γ²c² + n, Δ₁ = min(Δ₂², √d·Δ₂) for d = n²);
//   - Central: the Analyze-Gauss mechanism (Dwork et al.) — symmetric
//     Gaussian noise on the covariance, the performance upper limit;
//   - Local: Algorithm 4 — clients perturb their raw columns, the
//     server runs PCA on the noisy database.
//
// Utility is ‖X·V̂‖_F², evaluated against the true data.
package pca

import (
	"fmt"

	"sqm/internal/core"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/vfl"
)

// Config parameterizes one PCA run.
type Config struct {
	K     int     // number of principal components
	Eps   float64 // target ε (server-observed); ignored by Exact
	Delta float64 // target δ
	C     float64 // per-record L2 norm bound (1 for the bundled datasets)
	Gamma float64 // SQM scaling parameter (SQM only)
	Seed  uint64

	// NumClients overrides the noise-contributor count (0: one client
	// per column, the paper's default).
	NumClients int
	// TopKIters bounds the subspace iteration for large n (0: 60).
	TopKIters int
	// Recorder is an optional telemetry sink threaded through to the
	// MPC engine and transport (nil disables; see core.Params.Recorder).
	Recorder obs.Recorder
	// Engine selects the SQM evaluation backend (plain by default).
	Engine core.EngineKind
	// Parties is the BGW party count when Engine is EngineBGW.
	Parties int
	// Fault carries the fault-tolerance knobs (receive deadlines, dial
	// retries) down to the engine and mesh.
	Fault core.FaultConfig
	// ProjectPSD clamps the noisy covariance's negative eigenvalues to
	// zero before the subspace extraction — free post-processing that
	// can help at small ε. Small-n (Jacobi) path only.
	ProjectPSD bool
}

func (c *Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("pca: K must be >= 1, got %d", c.K)
	}
	if c.C <= 0 {
		return fmt.Errorf("pca: norm bound C must be positive, got %v", c.C)
	}
	return nil
}

// Result is a fitted subspace with its utility on the true data.
type Result struct {
	Subspace *linalg.Matrix // n x k, orthonormal columns
	Utility  float64        // ‖X·V̂‖_F²
	Mu       float64        // calibrated Skellam parameter (SQM only)
	Sigma    float64        // calibrated Gaussian scale (central/local only)
	Trace    *core.Trace    // protocol trace (SQM only)
}

// Utility computes ‖X·V‖_F².
func Utility(x, v *linalg.Matrix) float64 {
	return x.Mul(v).FrobeniusNormSq()
}

// topK extracts the principal k-dimensional subspace of a symmetric
// matrix, with the full Jacobi solver for small n and randomized
// subspace iteration for large n.
func topK(c *linalg.Matrix, k int, seed uint64, iters int) *linalg.Matrix {
	if iters <= 0 {
		iters = 60
	}
	n := c.Rows
	if k > n {
		k = n
	}
	if n <= 300 {
		e := linalg.SymEigen(c)
		v := linalg.NewMatrix(n, k)
		for j := 0; j < k; j++ {
			v.SetCol(j, e.Vectors.Col(j))
		}
		return v
	}
	return linalg.TopK(c, k, randx.New(seed^0x70b5), iters)
}

// gramOf computes XᵀX, switching to the CSR path when the data is
// sparse enough for the O(Σ nnz²) accumulation to win.
func gramOf(x *linalg.Matrix) *linalg.Matrix {
	if x.Rows*x.Cols == 0 {
		return linalg.NewMatrix(x.Cols, x.Cols)
	}
	nnz := 0
	for _, v := range x.Data {
		if !mathx.EqualWithin(v, 0, 0) {
			nnz++
		}
	}
	if float64(nnz)/float64(len(x.Data)) < 0.1 {
		return linalg.SparseFromDense(x, 0).Gram()
	}
	return x.Gram()
}

// Exact is the non-private reference: eigenvectors of XᵀX.
func Exact(x *linalg.Matrix, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	v := topK(gramOf(x), cfg.K, cfg.Seed, cfg.TopKIters)
	return &Result{Subspace: v, Utility: Utility(x, v)}, nil
}

// Sensitivities returns Lemma 5's L2/L1 sensitivities of the quantized
// covariance: Δ₂ = γ²c² + n, Δ₁ = min(Δ₂², √d·Δ₂) with d = n². The
// closed form lives next to the protocol in core so the release can
// self-account.
func Sensitivities(gamma, c float64, n int) (delta2, delta1 float64) {
	return core.CovarianceSensitivities(gamma, c, n)
}

// CalibrateMu returns the minimal Skellam parameter for the SQM
// covariance to satisfy server-observed (ε, δ)-DP.
func CalibrateMu(eps, delta, gamma, c float64, n int) (float64, error) {
	d2, d1 := Sensitivities(gamma, c, n)
	return dp.CalibrateSkellamMu(eps, delta, d1, d2, 1, 1)
}

// ClientEpsilon reports the client-observed (ε, δ) the SQM covariance
// provides at noise parameter mu (Lemma 5's τ_client converted via
// Lemma 9): weaker than the server-observed guarantee because each
// client knows its own noise share and the record count.
func ClientEpsilon(mu, gamma, c float64, n, numClients int, delta float64) (float64, int) {
	d2, d1 := Sensitivities(gamma, c, n)
	return dp.SkellamClientEpsilon(d1, d2, mu, numClients, 1, delta, dp.DefaultMaxAlpha)
}

// SQM runs the paper's mechanism: quantize, jointly compute the noisy
// covariance, then take the top-k eigenvectors of C̃/γ².
func SQM(x *linalg.Matrix, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Gamma < 1 {
		return nil, fmt.Errorf("pca: SQM needs gamma >= 1, got %v", cfg.Gamma)
	}
	mu, err := CalibrateMu(cfg.Eps, cfg.Delta, cfg.Gamma, cfg.C, x.Cols)
	if err != nil {
		return nil, err
	}
	cov, tr, err := core.Covariance(x, core.Params{
		Gamma:      cfg.Gamma,
		Mu:         mu,
		NumClients: cfg.NumClients,
		Engine:     cfg.Engine,
		Parties:    cfg.Parties,
		Seed:       cfg.Seed,
		Recorder:   cfg.Recorder,
		Fault:      cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	if cfg.ProjectPSD && cov.Rows <= 300 {
		cov = linalg.ProjectPSD(cov)
	}
	v := topK(cov, cfg.K, cfg.Seed, cfg.TopKIters)
	return &Result{Subspace: v, Utility: Utility(x, v), Mu: mu, Trace: tr}, nil
}

// Central runs the Analyze-Gauss baseline: C = XᵀX plus a symmetric
// Gaussian noise matrix calibrated to the covariance's sensitivity c².
func Central(x *linalg.Matrix, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sigma, err := dp.AnalyticGaussianSigma(cfg.Eps, cfg.Delta, cfg.C*cfg.C)
	if err != nil {
		return nil, err
	}
	g := randx.New(cfg.Seed ^ 0xce47)
	c := gramOf(x)
	n := c.Rows
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			z := g.Gaussian(0, sigma)
			c.Set(a, b, c.At(a, b)+z)
			if b != a {
				c.Set(b, a, c.At(a, b))
			}
		}
	}
	v := topK(c, cfg.K, cfg.Seed, cfg.TopKIters)
	return &Result{Subspace: v, Utility: Utility(x, v), Sigma: sigma}, nil
}

// Local runs the local-DP baseline: Algorithm 4 perturbs the raw data,
// then the server performs exact PCA on the noisy database. The
// subspace quality is judged against the true X.
func Local(x *linalg.Matrix, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sigma, err := vfl.CalibrateLocalSigma(cfg.Eps, cfg.Delta, cfg.C)
	if err != nil {
		return nil, err
	}
	noisy := vfl.PerturbDataset(x, sigma, cfg.Seed^0x10ca1)
	v := topK(noisy.Gram(), cfg.K, cfg.Seed, cfg.TopKIters)
	return &Result{Subspace: v, Utility: Utility(x, v), Sigma: sigma}, nil
}
