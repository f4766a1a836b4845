package main

import (
	"fmt"

	"sqm/internal/bgw"
	"sqm/internal/core"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/logreg"
	"sqm/internal/randx"
)

// The LR trainers return a model and nothing else, so a session's
// rounds, frames and bytes are not visible through the facade. countPass
// replays what the trainer does — same protocol constructors, same seed,
// same R rounds — directly on core's protocols and sums the engine's own
// counters. It is untimed and runs once per process.

// coreStats returns core's own counters for one session with this seed:
// the facade's Trace.Stats for covariance, the count pass for LR.
func (w workload) coreStats(in *inputs, seed uint64) (bgw.Stats, error) {
	if w.kind == kindCov {
		_, stats, err := w.session(in, seed, w.engine)
		return stats, err
	}
	return w.countPass(in, seed)
}

func addStats(a, b bgw.Stats) bgw.Stats {
	return bgw.Stats{
		Rounds:   a.Rounds + b.Rounds,
		Frames:   a.Frames + b.Frames,
		Messages: a.Messages + b.Messages,
		Bytes:    a.Bytes + b.Bytes,
		FieldOps: a.FieldOps + b.FieldOps,
	}
}

// trainerSeedXor returns the trainer's weight-initialisation stream
// offset (logreg.TrainSQM and TrainSQMOrder3 differ by one bit).
func (w workload) trainerSeedXor() uint64 {
	if w.kind == kindLR3 {
		return 0x5e4e
	}
	return 0x5e4d
}

// initWeights mirrors the trainers' server-side initialisation.
func initWeights(d int, seed uint64) []float64 {
	wt := randx.New(seed).GaussianVec(d, 0.1)
	linalg.ClipNorm(wt, 1)
	return wt
}

// countPass returns the protocol counters of one LR session with the
// given seed: data-sharing set-up plus every gradient step.
func (w workload) countPass(in *inputs, seed uint64) (bgw.Stats, error) {
	cfg := w.lrConfig(seed, w.engine)
	params := core.Params{Gamma: w.gamma, Engine: w.engine, Parties: w.parties, Seed: seed}

	// Data-sharing traffic. Both protocols share d feature columns and
	// the label column in one input round; only LRProtocol reports it,
	// and the order-3 trainer pays it twice (sensitivity probe, then the
	// calibrated run).
	var step func(wt []float64) ([]float64, *core.Trace, error)
	var total bgw.Stats
	if w.kind == kindLR {
		mu, err := logreg.CalibrateMu(cfg, w.n)
		if err != nil {
			return total, fmt.Errorf("count pass: calibrate: %w", err)
		}
		params.Mu = mu
		lr, err := core.NewLRProtocol(in.x, in.y, params)
		if err != nil {
			return total, fmt.Errorf("count pass: %w", err)
		}
		defer lr.Close()
		total = lr.SetupStats()
		step = func(wt []float64) ([]float64, *core.Trace, error) {
			return lr.GradientSum(wt, lr.SampleBatch(cfg.SampleRate))
		}
	} else {
		lr, err := core.NewLRProtocol(in.x, in.y, params)
		if err != nil {
			return total, fmt.Errorf("count pass: %w", err)
		}
		setup := lr.SetupStats()
		lr.Close()
		total = addStats(setup, setup)

		probe, err := core.NewLR3Protocol(in.x, in.y, params, 0)
		if err != nil {
			return total, fmt.Errorf("count pass: %w", err)
		}
		d2, d1 := probe.Sensitivity()
		probe.Close()
		mu, err := dp.CalibrateSkellamMu(cfg.Eps, cfg.Delta, d1, d2, cfg.SampleRate, cfg.Rounds())
		if err != nil {
			return total, fmt.Errorf("count pass: calibrate: %w", err)
		}
		params.Mu = mu
		lr3, err := core.NewLR3Protocol(in.x, in.y, params, 0)
		if err != nil {
			return total, fmt.Errorf("count pass: %w", err)
		}
		defer lr3.Close()
		step = func(wt []float64) ([]float64, *core.Trace, error) {
			return lr3.GradientSum(wt, lr3.SampleBatch(cfg.SampleRate))
		}
	}

	wt := initWeights(w.n, seed^w.trainerSeedXor())
	rate := -0.5 / (cfg.SampleRate * float64(in.x.Rows)) // the trainers' default learning rate
	for r := 0; r < cfg.Rounds(); r++ {
		grad, tr, err := step(wt)
		if err != nil {
			return total, fmt.Errorf("count pass: round %d: %w", r, err)
		}
		total = addStats(total, tr.Stats)
		linalg.Axpy(rate, grad, wt)
		linalg.ClipNorm(wt, 1)
	}
	return total, nil
}
