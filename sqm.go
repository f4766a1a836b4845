// Package sqm is the public API of this repository: a from-scratch Go
// implementation of the Skellam Quantization Mechanism (SQM) for
// learning on vertically partitioned data with distributed differential
// privacy (Bao et al., ICDE 2025).
//
// SQM evaluates polynomial aggregates F(X) = Σ_x f(x) over a database
// whose columns are split across mutually distrusting clients. Every
// client quantizes its column with unbiased stochastic rounding, samples
// a private share of integer-valued Skellam noise, and the clients
// jointly evaluate the quantized polynomial plus the aggregated noise
// inside the BGW secure-multiparty protocol. No party — client or
// server — ever observes the data or the exact aggregate, and the
// released output satisfies Rényi/(ε,δ) differential privacy with a
// privacy-utility trade-off matching the centralized Gaussian mechanism
// as the scaling parameter γ grows.
//
// The package re-exports the library's stable surface; implementations
// live under internal/ (one package per subsystem — see DESIGN.md).
//
// # Quick start
//
//	x := sqm.NewMatrix(rows, cols) // fill with records, ‖row‖₂ ≤ 1
//	f := sqm.MustMulti(sqm.MustPolynomial(cols,
//	        sqm.Monomial{Coef: 1, Exps: []int{1, 1, 0}}))
//	est, trace, err := sqm.EvaluatePolynomialSum(f, x, sqm.Params{
//	        Gamma: 4096, Mu: mu, Seed: 1,
//	})
//
// Calibrate Mu from a target (ε, δ) with CalibrateSkellamMu, or use the
// task-level helpers PCASQM / TrainLogRegSQM which calibrate internally
// from the paper's closed-form sensitivities.
package sqm

import (
	"io"

	"sqm/internal/approx"
	"sqm/internal/audit"
	"sqm/internal/bench"
	"sqm/internal/core"
	"sqm/internal/dataset"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/linreg"
	"sqm/internal/logreg"
	"sqm/internal/marginal"
	"sqm/internal/modelio"
	"sqm/internal/obs"
	"sqm/internal/pca"
	"sqm/internal/poly"
	"sqm/internal/vfl"
)

// Matrix is a dense row-major float64 matrix (records in rows).
type Matrix = linalg.Matrix

// NewMatrix allocates a zero rows × cols matrix.
func NewMatrix(rows, cols int) *Matrix { return linalg.NewMatrix(rows, cols) }

// FromRows builds a matrix from row slices.
func FromRows(rows [][]float64) *Matrix { return linalg.FromRows(rows) }

// Monomial is one term a·Π_j x[j]^Exps[j] of a polynomial.
type Monomial = poly.Monomial

// Polynomial is one output dimension: a sum of monomials.
type Polynomial = poly.Polynomial

// Multi is a d-dimensional polynomial function f = (f_1, ..., f_d).
type Multi = poly.Multi

// NewPolynomial validates and constructs a polynomial.
func NewPolynomial(numVars int, ms ...Monomial) (*Polynomial, error) {
	return poly.NewPolynomial(numVars, ms...)
}

// MustPolynomial is NewPolynomial but panics on error.
func MustPolynomial(numVars int, ms ...Monomial) *Polynomial {
	return poly.MustPolynomial(numVars, ms...)
}

// NewMulti validates and bundles polynomial dimensions.
func NewMulti(dims ...*Polynomial) (*Multi, error) { return poly.NewMulti(dims...) }

// MustMulti is NewMulti but panics on error.
func MustMulti(dims ...*Polynomial) *Multi { return poly.MustMulti(dims...) }

// Params configures one SQM invocation (Algorithms 1 and 3).
type Params = core.Params

// Trace carries per-invocation diagnostics and protocol cost counters.
type Trace = core.Trace

// EngineKind selects the evaluation backend.
type EngineKind = core.EngineKind

// Evaluation backends: EnginePlain computes the identical integers
// without secret sharing; the three MPC kinds drive the same BGW
// engine, one goroutine per party exchanging framed shares: EngineBGW
// and EngineActorBGW (two names for one backend) over an in-memory
// message mesh, EngineActorBGWNet over localhost TCP sockets. All four
// open bit-identical results for the same Params, and the MPC kinds hold
// the same shares and count the same rounds, frames and bytes.
const (
	EnginePlain       = core.EnginePlain
	EngineBGW         = core.EngineBGW
	EngineActorBGW    = core.EngineActorBGW
	EngineActorBGWNet = core.EngineActorBGWNet
)

// ParseEngineKind maps a backend name ("plain", "bgw", "actor",
// "actor-net") to its EngineKind.
func ParseEngineKind(s string) (EngineKind, error) { return core.ParseEngineKind(s) }

// ErrFieldOverflow reports that an aggregate cannot fit the MPC field.
var ErrFieldOverflow = core.ErrFieldOverflow

// EvaluatePolynomialSum runs Algorithm 3 on a multi-dimensional
// polynomial over the vertically partitioned rows of x.
func EvaluatePolynomialSum(f *Multi, x *Matrix, p Params) ([]float64, *Trace, error) {
	return core.EvaluatePolynomialSum(f, x, p)
}

// EvaluateMonomialSum runs Algorithm 1 on a single monomial.
func EvaluateMonomialSum(m Monomial, x *Matrix, p Params) (float64, *Trace, error) {
	return core.EvaluateMonomialSum(m, x, p)
}

// Covariance runs the specialized PCA protocol of §V-A, returning the
// noisy covariance estimate XᵀX/1 (already down-scaled by γ²).
func Covariance(x *Matrix, p Params) (*Matrix, *Trace, error) {
	return core.Covariance(x, p)
}

// CovarianceStream accumulates the covariance protocol over record
// batches for databases too large to hold in memory.
type CovarianceStream = core.CovarianceStream

// NewCovarianceStream prepares a streaming accumulator over n
// attributes (plain engine only).
func NewCovarianceStream(n int, p Params) (*CovarianceStream, error) {
	return core.NewCovarianceStream(n, p)
}

// LRProtocol is the stateful logistic-regression protocol of §V-B.
type LRProtocol = core.LRProtocol

// NewLRProtocol quantizes and (for EngineBGW) secret-shares the
// training data once; call GradientSum per SGD round.
func NewLRProtocol(features *Matrix, labels []float64, p Params) (*LRProtocol, error) {
	return core.NewLRProtocol(features, labels, p)
}

// ---- Differential-privacy accounting ----

// SkellamRDP is Lemma 1's RDP bound of the Skellam mechanism.
func SkellamRDP(alpha int, delta1, delta2, mu float64) float64 {
	return dp.SkellamRDP(alpha, delta1, delta2, mu)
}

// RDPToDP converts (α, τ)-RDP to (ε, δ)-DP (Lemma 9).
func RDPToDP(alpha int, tau, delta float64) float64 { return dp.RDPToDP(alpha, tau, delta) }

// SkellamEpsilon is the server-observed ε of R (optionally subsampled)
// Skellam rounds.
func SkellamEpsilon(delta1, delta2, mu, q float64, rounds int, delta float64) (float64, int) {
	return dp.SkellamEpsilon(delta1, delta2, mu, q, rounds, delta, dp.DefaultMaxAlpha)
}

// SkellamClientEpsilon is the client-observed counterpart.
func SkellamClientEpsilon(delta1, delta2, mu float64, numClients, rounds int, delta float64) (float64, int) {
	return dp.SkellamClientEpsilon(delta1, delta2, mu, numClients, rounds, delta, dp.DefaultMaxAlpha)
}

// CalibrateSkellamMu finds the minimal aggregate Skellam parameter
// meeting a target server-observed (ε, δ).
func CalibrateSkellamMu(targetEps, delta, delta1, delta2, q float64, rounds int) (float64, error) {
	return dp.CalibrateSkellamMu(targetEps, delta, delta1, delta2, q, rounds)
}

// Accountant tracks the cumulative privacy cost of heterogeneous
// releases against one database and converts to (ε, δ) on demand.
type Accountant = dp.Accountant

// NewAccountant tracks RDP orders 2..maxAlpha (0 for the default).
func NewAccountant(maxAlpha int) *Accountant { return dp.NewAccountant(maxAlpha) }

// ---- Observability ----

// Recorder is the telemetry sink threaded through the engines: one
// stream of structured events (Enabled, Event), whose attributes carry
// every number — a span's "seconds", a round's frame deltas, a
// release's ε. Attach one via Params.Recorder; a nil Recorder disables
// telemetry at zero cost.
type Recorder = obs.Recorder

// Log levels accepted by NewLogRecorder.
const (
	LevelDebug = obs.LevelDebug
	LevelInfo  = obs.LevelInfo
	LevelWarn  = obs.LevelWarn
)

// NewLogRecorder builds a slog-backed recorder writing structured
// events to w ("json" or "text" format) at or above min.
func NewLogRecorder(w io.Writer, format string, min obs.Level) *obs.LogRecorder {
	return obs.NewLog(w, format, min)
}

// NopRecorder is the disabled recorder: Enabled answers false and
// events vanish.
func NopRecorder() Recorder { return obs.Nop() }

// TraceID identifies one distributed trace (a whole session across
// every party).
type TraceID = obs.TraceID

// TraceContext is the per-run tracing root: one Lamport-clocked event
// stream per party plus the coordinator, each backed by a bounded
// flight recorder that dumps JSONL on demand (TraceContext.DumpAll).
// Attach it by wrapping Params.Recorder with its coordinator stream
// (Coordinator().Wrap) — share one context across the releases of a
// run — and merge the dumps with cmd/sqmtrace.
type TraceContext = obs.TraceContext

// NewTraceContext builds a tracing root for the given party count
// (0 for a coordinator-only trace).
func NewTraceContext(id TraceID, parties int) *TraceContext {
	return obs.NewTraceContext(id, parties)
}

// DeriveTraceID deterministically mixes the inputs (seed, party count,
// ...) into a trace id, keeping traced runs reproducible.
func DeriveTraceID(parts ...uint64) TraceID { return obs.DeriveTraceID(parts...) }

// GroupPrivacy converts a record-level (ε, δ) guarantee to a k-record
// (user-level) one via the standard group-privacy bound — the baseline
// for the paper's user-level future-work direction.
func GroupPrivacy(eps, delta float64, k int) (float64, float64) {
	return dp.GroupPrivacy(eps, delta, k)
}

// AnalyticGaussianSigma is the Balle–Wang calibration (Lemma 8).
func AnalyticGaussianSigma(eps, delta, sensitivity float64) (float64, error) {
	return dp.AnalyticGaussianSigma(eps, delta, sensitivity)
}

// ---- Applications: PCA (§V-A) ----

// PCAConfig parameterizes the PCA mechanisms.
type PCAConfig = pca.Config

// PCAResult is a fitted subspace with its utility ‖XV̂‖²_F.
type PCAResult = pca.Result

// PCAExact is the non-private reference.
func PCAExact(x *Matrix, cfg PCAConfig) (*PCAResult, error) { return pca.Exact(x, cfg) }

// PCASQM is the paper's distributed-DP mechanism.
func PCASQM(x *Matrix, cfg PCAConfig) (*PCAResult, error) { return pca.SQM(x, cfg) }

// PCACentral is the Analyze-Gauss centralized baseline.
func PCACentral(x *Matrix, cfg PCAConfig) (*PCAResult, error) { return pca.Central(x, cfg) }

// PCALocal is the local-DP baseline (Algorithm 4).
func PCALocal(x *Matrix, cfg PCAConfig) (*PCAResult, error) { return pca.Local(x, cfg) }

// ---- Applications: logistic regression (§V-B) ----

// LRConfig parameterizes the private trainers.
type LRConfig = logreg.Config

// LRModel is a fitted model with ‖w‖₂ ≤ 1. The SQM trainers also
// return what they ran: Mu is the μ the session was calibrated at and
// booked under, and Trace its record — the data-sharing set-up's rounds,
// frames and bytes plus every step's Stats, Compute and NoiseCompute.
// Both are zero for the other trainers.
type LRModel = logreg.Model

// TrainLogRegSQM trains under distributed DP in the VFL setting.
func TrainLogRegSQM(x *Matrix, y []float64, cfg LRConfig) (*LRModel, error) {
	return logreg.TrainSQM(x, y, cfg)
}

// TrainLogRegSQMOrder3 trains with the order-3 Taylor sigmoid (the
// §V-C extension); γ must stay moderate (≲ 2⁹) for the degree-4
// amplification to fit the MPC field.
func TrainLogRegSQMOrder3(x *Matrix, y []float64, cfg LRConfig) (*LRModel, error) {
	return logreg.TrainSQMOrder3(x, y, cfg)
}

// TrainLogRegGLM trains with an arbitrary polynomial link function (a
// Taylor or Chebyshev fit) through the fully generic Algorithm 3 path.
// More flexible but noisier than the specialized trainers: the
// conservative per-monomial sensitivity costs a constant factor.
func TrainLogRegGLM(link *ApproxPoly1, x *Matrix, y []float64, cfg LRConfig) (*LRModel, error) {
	return logreg.TrainGLM(link, x, y, cfg)
}

// TrainLogRegDPSGD is the centralized DPSGD baseline.
func TrainLogRegDPSGD(x *Matrix, y []float64, cfg LRConfig) (*LRModel, error) {
	return logreg.TrainDPSGD(x, y, cfg)
}

// TrainLogRegLocal is the local-DP baseline.
func TrainLogRegLocal(x *Matrix, y []float64, cfg LRConfig) (*LRModel, error) {
	return logreg.TrainLocal(x, y, cfg)
}

// TrainLogRegNonPrivate is the exact reference model.
func TrainLogRegNonPrivate(x *Matrix, y []float64, seed uint64) *LRModel {
	return logreg.TrainNonPrivate(x, y, seed)
}

// LogRegAccuracy is the 0.5-threshold test accuracy.
func LogRegAccuracy(m *LRModel, x *Matrix, y []float64) float64 {
	return logreg.Accuracy(m, x, y)
}

// ---- Applications: k-way marginals (extension) ----

// MarginalQuery is one conjunction count over binary attributes.
type MarginalQuery = marginal.Query

// MarginalResult is a privately answered marginal workload.
type MarginalResult = marginal.Result

// AnswerMarginals releases a workload of k-way conjunction counts over
// vertically partitioned binary data under one (ε, δ) budget.
func AnswerMarginals(x *Matrix, queries []MarginalQuery, eps, delta, gamma float64, p Params) (*MarginalResult, error) {
	return marginal.Answer(x, queries, eps, delta, gamma, p)
}

// TrueMarginals computes the exact workload answers for evaluation.
func TrueMarginals(x *Matrix, queries []MarginalQuery) ([]float64, error) {
	return marginal.TrueCounts(x, queries)
}

// AllPairMarginals enumerates every 2-way marginal over n attributes.
func AllPairMarginals(n int) []MarginalQuery { return marginal.AllPairs(n) }

// ---- Polynomial approximation of activations ----

// ApproxPoly1 is a univariate polynomial approximation of an activation
// function, convertible to an SQM-evaluable polynomial.
type ApproxPoly1 = approx.Poly1

// SigmoidOf, TanhOf and GELUOf are the activation functions the
// approximation helpers target.
func SigmoidOf(u float64) float64 { return approx.Sigmoid(u) }

// TanhOf is the hyperbolic tangent.
func TanhOf(u float64) float64 { return approx.Tanh(u) }

// GELUOf is the Gaussian error linear unit.
func GELUOf(u float64) float64 { return approx.GELU(u) }

// SigmoidTaylor returns the order-H Taylor sigmoid (the paper's H=1 is
// ½ + u/4).
func SigmoidTaylor(order int) (*ApproxPoly1, error) { return approx.SigmoidTaylor(order) }

// TanhTaylor returns the order-H Taylor tanh.
func TanhTaylor(order int) (*ApproxPoly1, error) { return approx.TanhTaylor(order) }

// ChebyshevApprox fits a near-minimax degree-n polynomial to f on
// [−r, r] — the approximation style used for GELU/Tanh in private
// transformer inference (§III's motivation).
func ChebyshevApprox(f func(float64) float64, r float64, degree int) (*ApproxPoly1, error) {
	return approx.Chebyshev(approx.Func(f), r, degree)
}

// MinApproxDegree finds the smallest Chebyshev degree meeting a sup-norm
// tolerance on [−r, r], so callers can budget the SQM degree before
// paying for it.
func MinApproxDegree(f func(float64) float64, r, tol float64, maxDegree int) (*ApproxPoly1, error) {
	return approx.MinDegreeFor(approx.Func(f), r, tol, maxDegree)
}

// ---- Applications: ridge regression (extension) ----

// RidgeConfig parameterizes the private ridge-regression fits.
type RidgeConfig = linreg.Config

// RidgeModel is a fitted linear predictor. RidgeSQM also returns what it
// ran: Mu is the μ its covariance release was calibrated at, and Trace
// that release's rounds, frames, bytes and clocks. Both are zero for the
// other fits.
type RidgeModel = linreg.Model

// RidgeExact is the non-private ridge fit.
func RidgeExact(x *Matrix, y []float64, cfg RidgeConfig) (*RidgeModel, error) {
	return linreg.Exact(x, y, cfg)
}

// RidgeSQM fits ridge regression under distributed DP via the
// covariance protocol on the augmented matrix [X | y] — an exactly
// polynomial task, no approximation needed.
func RidgeSQM(x *Matrix, y []float64, cfg RidgeConfig) (*RidgeModel, error) {
	return linreg.SQM(x, y, cfg)
}

// RidgeCentral is the centralized sufficient-statistics baseline.
func RidgeCentral(x *Matrix, y []float64, cfg RidgeConfig) (*RidgeModel, error) {
	return linreg.Central(x, y, cfg)
}

// RidgeLocal is the local-DP baseline.
func RidgeLocal(x *Matrix, y []float64, cfg RidgeConfig) (*RidgeModel, error) {
	return linreg.Local(x, y, cfg)
}

// RidgeMSE is the mean squared error of a ridge model.
func RidgeMSE(m *RidgeModel, x *Matrix, y []float64) float64 { return linreg.MSE(m, x, y) }

// RidgeR2 is the coefficient of determination of a ridge model.
func RidgeR2(m *RidgeModel, x *Matrix, y []float64) float64 { return linreg.R2(m, x, y) }

// RegressionLike generates the synthetic regression task used by the
// ridge extension.
func RegressionLike(mTrain, mTest, d int, noiseStd float64, seed uint64) *Dataset {
	return dataset.RegressionLike(mTrain, mTest, d, noiseStd, seed)
}

// ---- Baseline plumbing and datasets ----

// PerturbDataset runs the local-DP baseline's Algorithm 4.
func PerturbDataset(x *Matrix, sigma float64, seed uint64) *Matrix {
	return vfl.PerturbDataset(x, sigma, seed)
}

// Dataset is a bundled synthetic learning task (see DESIGN.md for how
// each generator stands in for the paper's real corpus).
type Dataset = dataset.Dataset

// KDDCupLike generates the KDDCUP-like PCA dataset.
func KDDCupLike(m, n int, seed uint64) *Dataset { return dataset.KDDCupLike(m, n, seed) }

// CiteSeerLike generates the CiteSeer-like sparse PCA dataset.
func CiteSeerLike(m, n int, seed uint64) *Dataset { return dataset.CiteSeerLike(m, n, seed) }

// GeneLike generates the Gene-like low-rank PCA dataset.
func GeneLike(m, n int, seed uint64) *Dataset { return dataset.GeneLike(m, n, seed) }

// ACSIncomeLike generates one state's ACSIncome-like LR task.
func ACSIncomeLike(state string, mTrain, mTest, d int, seed uint64) (*Dataset, error) {
	return dataset.ACSIncomeLike(state, mTrain, mTest, d, seed)
}

// ---- Empirical auditing ----

// AuditSampler draws one output of a mechanism on a fixed input.
type AuditSampler = audit.Sampler

// AuditConfig tunes the empirical privacy estimator.
type AuditConfig = audit.Config

// AuditResult is one audit outcome.
type AuditResult = audit.Result

// AuditEpsilon empirically lower-bounds the privacy loss between a
// mechanism run on two neighboring inputs; estimates far above the
// claimed ε indicate an implementation leak (forgotten noise,
// sensitivity underestimation).
func AuditEpsilon(onX, onNeighbor AuditSampler, cfg AuditConfig) (*AuditResult, error) {
	return audit.EstimateEpsilon(onX, onNeighbor, cfg)
}

// ---- Model persistence ----

// ModelProvenance records the privacy budget a stored artifact
// consumed.
type ModelProvenance = modelio.Provenance

// ModelEnvelope is the versioned on-disk artifact form.
type ModelEnvelope = modelio.Envelope

// SaveLogRegModel persists a trained logistic model with its privacy
// provenance.
func SaveLogRegModel(w io.Writer, m *LRModel, prov ModelProvenance) error {
	return modelio.SaveWeights(w, modelio.KindLogReg, m.W, prov)
}

// SaveRidgeModel persists a ridge model.
func SaveRidgeModel(w io.Writer, m *RidgeModel, prov ModelProvenance) error {
	return modelio.SaveWeights(w, modelio.KindRidge, m.W, prov)
}

// SavePCASubspace persists a fitted principal subspace.
func SavePCASubspace(w io.Writer, r *PCAResult, prov ModelProvenance) error {
	return modelio.SaveSubspace(w, r.Subspace, prov)
}

// LoadModel parses any persisted artifact.
func LoadModel(r io.Reader) (*ModelEnvelope, error) { return modelio.Load(r) }

// ---- Experiment harness ----

// ExperimentOptions tunes the paper-experiment runners.
type ExperimentOptions = bench.Options

// ExperimentTable is a printable experiment result.
type ExperimentTable = bench.Table

// RunExperiment regenerates a paper table or figure by id ("fig2".."fig5",
// "table1".."table5", or "all").
func RunExperiment(id string, o ExperimentOptions) ([]*ExperimentTable, error) {
	return bench.ByID(id, o)
}
