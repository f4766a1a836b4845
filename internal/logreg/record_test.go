package logreg

import (
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/core"
	"sqm/internal/dp"
	"sqm/internal/linalg"
)

// TestTrainerRecordMatchesClosedForm pins a trainer's record to the
// closed forms of its parts at the benchmark's LR shapes (P = 4, t = 1,
// one epoch), on both MPC drivers: one data-sharing set-up — d+1 column
// vectors of m elements, each dealt to the P−1−t peers that do not draw
// their rows from a stream shared with the dealer, in one round — plus R
// steps whose counters TestGradientStepCountersClosedForm (core) pins.
// An order-1 step is the opening round, P − 1 frames of d elements, one
// into party 0 from each of its peers; an order-3 step at P = 4, t = 1
// reshares the cube's B products in one level first, 2 rounds and
// P·(P−1−t) + (P−1) frames. On the plain engine
// the counters are zero and Mu is the calibrated μ.
func TestTrainerRecordMatchesClosedForm(t *testing.T) {
	const P, th = 4, 1
	for _, c := range []struct {
		name                string
		fit                 func(*linalg.Matrix, []float64, Config) (*Model, error)
		m, d                int
		gamma, q            float64
		stepRounds          int64
		stepFrames          int64
		sensitivity         func(gamma float64, d int) (delta2, delta1 float64)
		wantR, wantF, wantB int64 // wantB 0: an order-3 step's bytes follow its batch size
	}{
		// 1 632 000 set-up bytes and 10 steps of 8·d·(P−1) = 1 200.
		{name: "lr_chan", fit: TrainSQM, m: 2000, d: 50, gamma: 18, q: 0.1, stepRounds: 1, stepFrames: P - 1,
			sensitivity: Sensitivities, wantR: 11, wantF: 132, wantB: 1644000},
		{name: "lr3_tcp", fit: TrainSQMOrder3, m: 2000, d: 20, gamma: 8, q: 0.05, stepRounds: 2, stepFrames: P*(P-1-th) + (P - 1),
			sensitivity: func(gamma float64, d int) (float64, float64) {
				return core.LR3Sensitivity(gamma, d, core.DefaultLR3Precision)
			}, wantR: 41, wantF: 262},
	} {
		for _, seed := range []uint64{1, 7} {
			ds := smallTask(t, c.m, 1, c.d, seed)
			train := func(engine core.EngineKind) *Model {
				cfg := Config{Eps: 1, Delta: 1e-5, Gamma: c.gamma, Epochs: 1, SampleRate: c.q, Seed: seed, Engine: engine, Parties: P}
				m, err := c.fit(ds.X, ds.Labels, cfg)
				if err != nil {
					t.Fatalf("%s seed %d %v: %v", c.name, seed, engine, err)
				}
				return m
			}

			plain := train(core.EnginePlain)
			cfg := Config{Eps: 1, Delta: 1e-5, Epochs: 1, SampleRate: c.q}
			d2, d1 := c.sensitivity(c.gamma, c.d)
			mu, err := dp.CalibrateSkellamMu(cfg.Eps, cfg.Delta, d1, d2, cfg.SampleRate, cfg.Rounds())
			if err != nil {
				t.Fatal(err)
			}
			if plain.Mu != mu || plain.Trace == nil || plain.Trace.Stats != (bgw.Stats{}) {
				t.Errorf("%s seed %d plain: Mu %v (calibrated %v), record %+v", c.name, seed, plain.Mu, mu, plain.Trace)
			}

			R := int64(cfg.Rounds())
			setupFrames := int64((c.d + 1) * (P - 1 - th))
			for _, engine := range []core.EngineKind{core.EngineBGW, core.EngineActorBGW} {
				m := train(engine)
				st := m.Trace.Stats
				if m.Mu != mu || st.Rounds != c.wantR || st.Frames != c.wantF {
					t.Errorf("%s seed %d %v: Mu %v (calibrated %v), %d rounds / %d frames, want %d / %d",
						c.name, seed, engine, m.Mu, mu, st.Rounds, st.Frames, c.wantR, c.wantF)
				}
				// One set-up: what the steps leave of the counters is one
				// input round.
				if st.Rounds-R*c.stepRounds != 1 || st.Frames-R*c.stepFrames != setupFrames {
					t.Errorf("%s seed %d %v: %d rounds / %d frames beyond %d steps, want one set-up (1 / %d)",
						c.name, seed, engine, st.Rounds-R*c.stepRounds, st.Frames-R*c.stepFrames, R, setupFrames)
				}
				if c.wantB != 0 && st.Bytes != c.wantB {
					t.Errorf("%s seed %d %v: %d bytes, want %d", c.name, seed, engine, st.Bytes, c.wantB)
				}
				if m.Trace.Compute <= 0 {
					t.Errorf("%s seed %d %v: record has no compute time", c.name, seed, engine)
				}
			}
		}
	}
}
