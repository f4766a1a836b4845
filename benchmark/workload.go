package main

import (
	"fmt"

	"sqm"
	"sqm/internal/bgw"
	"sqm/internal/pca"
)

// Privacy target shared by every workload (the paper's default).
const (
	targetEps   = 1.0
	targetDelta = 1e-5
)

// sessionKind names the facade call a workload drives.
type sessionKind int

const (
	kindCov sessionKind = iota // sqm.Covariance
	kindLR                     // sqm.TrainLogRegSQM
	kindLR3                    // sqm.TrainLogRegSQMOrder3
)

// workload is one named benchmark case: a whole session through the sqm
// facade at a fixed shape on a fixed engine.
type workload struct {
	name string
	why  string
	kind sessionKind

	engine  sqm.EngineKind
	parties int
	m       int // records
	n       int // attributes (covariance) or features d (LR)
	gamma   float64

	// LR only: R = epochs/sampleRate SGD rounds per session.
	epochs     int
	sampleRate float64
}

// workloads lists the benchmark cases in report order. The shapes keep
// one session between 0.2 s and 0.7 s on a 2-core box so a 25 s run
// holds enough sessions for a steady median; see README.md.
var workloads = []workload{
	{
		name: "cov_mono", kind: kindCov, engine: sqm.EngineBGW,
		why:     "covariance on the monolithic engine: pure share arithmetic (field, shamir, bgw folds), no transport",
		parties: 4, m: 1000, n: 120, gamma: 18,
	},
	{
		name: "cov_tcp_p10", kind: kindCov, engine: sqm.EngineActorBGWNet,
		why:     "covariance over 10 parties on loopback TCP: few large frames, O(P^2) reshare traffic and 45 dials per session",
		parties: 10, m: 1000, n: 80, gamma: 18,
	},
	{
		name: "lr_chan", kind: kindLR, engine: sqm.EngineActorBGW,
		why:     "logistic regression over the channel mesh: dp calibration, plan build and dispatch of thousands of local gates, tiny frames",
		parties: 4, m: 2000, n: 50, gamma: 18, epochs: 1, sampleRate: 0.1,
	},
	{
		name: "lr3_tcp", kind: kindLR3, engine: sqm.EngineActorBGWNet,
		why:     "order-3 logistic regression over loopback TCP: depth-5 circuit, per-frame syscall and round latency dominate",
		parties: 4, m: 2000, n: 20, gamma: 8, epochs: 1, sampleRate: 0.05,
	},
}

// short shrinks a workload to the smoke-test shape (same engines and
// circuit structure, a fraction of the arithmetic).
func (w workload) short() workload {
	switch w.kind {
	case kindCov:
		w.m, w.n = 60, 12
	default:
		w.m, w.n, w.sampleRate = 120, 6, 0.25
	}
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rounds returns R, the SGD steps of one LR session (0 for covariance).
func (w workload) rounds() int {
	if w.kind == kindCov {
		return 0
	}
	cfg := sqm.LRConfig{Epochs: w.epochs, SampleRate: w.sampleRate}
	return cfg.Rounds()
}

// cells is the number of input cells one session consumes: m·n for
// covariance; for LR the expected Σ_steps |batch|·d = epochs·m·d (the
// realised Poisson batch sizes are not visible through the facade).
func (w workload) cells() float64 {
	if w.kind == kindCov {
		return float64(w.m) * float64(w.n)
	}
	return float64(w.epochs) * float64(w.m) * float64(w.n)
}

// inputs is what set-up hands to every session of a run.
type inputs struct {
	x  *sqm.Matrix
	y  []float64 // LR labels; nil for covariance
	mu float64   // covariance noise parameter (LR trainers calibrate per session)
}

// generate makes the dataset from seed.
func (w workload) generate(seed uint64) (*inputs, error) {
	if w.kind == kindCov {
		return &inputs{x: sqm.KDDCupLike(w.m, w.n, seed).X}, nil
	}
	ds, err := sqm.ACSIncomeLike("CA", w.m, 1, w.n, seed)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	return &inputs{x: ds.X, y: ds.Labels}, nil
}

// calibrate sets the covariance noise parameter for the privacy target
// (rows have unit norm bound); the LR trainers calibrate per session.
func (w workload) calibrate(in *inputs) error {
	if w.kind != kindCov {
		return nil
	}
	mu, err := pca.CalibrateMu(targetEps, targetDelta, w.gamma, 1, w.n)
	if err != nil {
		return fmt.Errorf("calibrate mu: %w", err)
	}
	in.mu = mu
	return nil
}

// kernelLen is the vector length the engines' field kernels see: whole
// columns of m shares for covariance, P-wide share vectors for LR.
func (w workload) kernelLen() int {
	if w.kind == kindCov {
		return w.m
	}
	return w.parties
}

// lrConfig is the trainer configuration of one LR session.
func (w workload) lrConfig(seed uint64, engine sqm.EngineKind) sqm.LRConfig {
	return sqm.LRConfig{
		Eps: targetEps, Delta: targetDelta, Gamma: w.gamma,
		Epochs: w.epochs, SampleRate: w.sampleRate,
		Seed: seed, Engine: engine, Parties: w.parties,
	}
}

// covParams is the protocol configuration of one covariance session.
func (w workload) covParams(in *inputs, seed uint64, engine sqm.EngineKind) sqm.Params {
	return sqm.Params{Gamma: w.gamma, Mu: in.mu, Engine: engine, Parties: w.parties, Seed: seed}
}

// session runs one whole session through the facade on the given
// engine and returns its released output: the covariance entries or the
// model weights. stats is filled for covariance only; the LR trainers do
// not expose theirs (see countPass).
func (w workload) session(in *inputs, seed uint64, engine sqm.EngineKind) (out []float64, stats bgw.Stats, err error) {
	switch w.kind {
	case kindCov:
		c, tr, err := sqm.Covariance(in.x, w.covParams(in, seed, engine))
		if err != nil {
			return nil, stats, err
		}
		return c.Data, tr.Stats, nil
	case kindLR:
		m, err := sqm.TrainLogRegSQM(in.x, in.y, w.lrConfig(seed, engine))
		if err != nil {
			return nil, stats, err
		}
		return m.W, stats, nil
	default:
		m, err := sqm.TrainLogRegSQMOrder3(in.x, in.y, w.lrConfig(seed, engine))
		if err != nil {
			return nil, stats, err
		}
		return m.W, stats, nil
	}
}

// oracle is the same call on the plain engine with the same seed; every
// MPC session must release bit-identical output.
func (w workload) oracle(in *inputs, seed uint64) ([]float64, error) {
	out, _, err := w.session(in, seed, sqm.EnginePlain)
	return out, err
}
