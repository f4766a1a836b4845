package sqm_test

import (
	"runtime"
	"testing"

	"sqm"
	"sqm/internal/pca"
)

// floorShape is one of the four benchmark workloads' session shapes
// (benchmark/workload.go), with the bound this test holds its
// allocated bytes to, as a multiple of the release's byte floor.
type floorShape struct {
	name    string
	lr3     bool // LR at order 3; covariance when epochs is 0
	engine  sqm.EngineKind
	parties int
	m, n    int // records; attributes (covariance) or features d (LR)
	gamma   float64
	epochs  int
	q       float64
	bound   float64
}

// raceBuild is set under the race detector (race_test.go).
var raceBuild bool

var floorShapes = []floorShape{
	{name: "cov_mono", engine: sqm.EngineBGW, parties: 4, m: 1000, n: 120, gamma: 18, bound: 1.63},
	{name: "cov_tcp_p10", engine: sqm.EngineActorBGWNet, parties: 10, m: 1000, n: 80, gamma: 18, bound: 1.53},
	{name: "lr_chan", engine: sqm.EngineActorBGW, parties: 4, m: 2000, n: 50, gamma: 18, epochs: 1, q: 0.1, bound: 1.45},
	{name: "lr3_tcp", lr3: true, engine: sqm.EngineActorBGWNet, parties: 4, m: 2000, n: 20, gamma: 8, epochs: 1, q: 0.05, bound: 1.87},
}

// floorBytes is the least a session of the shape can allocate, 8 bytes
// an integer or field element: the quantized columns once; every party's
// share of every column (its own columns' embedding, which it deals in
// place, and the rows it draws or is sent of the others'); and per
// release every party's row of the opening, each holder's noise vector
// and, for the order-3 step, the rows every party takes of the cube's
// resharing — P − 1 of them, B elements each (the expected batch, q·m).
// With one client per column, as the workloads have, there are
// min(clients, P) noise holders.
func (s floorShape) floorBytes() float64 {
	P := float64(s.parties)
	if s.epochs == 0 {
		cols, out := float64(s.n), float64(s.n*(s.n+1)/2)
		holders := min(cols, P)
		return 8 * (float64(s.m)*cols*(1+P) + out*(P+holders))
	}
	cols, d := float64(s.n+1), float64(s.n)
	holders := min(cols, P)
	steps := float64(s.epochs) / s.q
	perStep := d * (P + holders)
	if s.lr3 {
		perStep += P * (P - 1) * s.q * float64(s.m)
	}
	return 8 * (float64(s.m)*cols*(1+P) + steps*perStep)
}

// session runs one session of the shape through the facade, as the
// benchmark harness does.
func (s floorShape) session(t *testing.T, x *sqm.Matrix, y []float64, mu float64) {
	t.Helper()
	var err error
	switch {
	case s.epochs == 0:
		_, _, err = sqm.Covariance(x, sqm.Params{Gamma: s.gamma, Mu: mu, Engine: s.engine, Parties: s.parties, Seed: 1})
	default:
		cfg := sqm.LRConfig{Eps: 1, Delta: 1e-5, Gamma: s.gamma, Epochs: s.epochs, SampleRate: s.q,
			Seed: 1, Engine: s.engine, Parties: s.parties}
		if s.lr3 {
			_, err = sqm.TrainLogRegSQMOrder3(x, y, cfg)
		} else {
			_, err = sqm.TrainLogRegSQM(x, y, cfg)
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
}

// TestReleaseBytesOverTheirFloor prints, for the four benchmark
// workloads' shapes, the bytes one session allocates (the harness's
// alloc_mb_per_session, fewest of three sessions after a warm one) over
// the session's byte floor in closed form (floorBytes), and holds each
// ratio to the value the column-keeping builder, the one-batch gather,
// the one-slot vector sum (a release's noise) and the one-product dot
// level (a Gram, a gradient) reach. What is above the floor is copies and scratch: the engine's
// embedding arrays, frames, plan recording, and each step's gates.
func TestReleaseBytesOverTheirFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen whole sessions")
	}
	if raceBuild {
		t.Skip("the race detector allocates beside the program")
	}
	for _, s := range floorShapes {
		var x *sqm.Matrix
		var y []float64
		var mu float64
		if s.epochs == 0 {
			x = sqm.KDDCupLike(s.m, s.n, 1).X
			var err error
			if mu, err = pca.CalibrateMu(1, 1e-5, s.gamma, 1, s.n); err != nil {
				t.Fatal(err)
			}
		} else {
			ds, err := sqm.ACSIncomeLike("CA", s.m, 1, s.n, 1)
			if err != nil {
				t.Fatal(err)
			}
			x, y = ds.X, ds.Labels
		}
		s.session(t, x, y, mu)
		var fewest uint64
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.session(t, x, y, mu)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; run == 0 || got < fewest {
				fewest = got
			}
		}
		floor := s.floorBytes()
		ratio := float64(fewest) / floor
		t.Logf("%-11s alloc_mb_per_session %6.2f MB, floor %6.2f MB: %.2f× (bound %.2f×)",
			s.name, float64(fewest)/(1<<20), floor/(1<<20), ratio, s.bound)
		if ratio > s.bound {
			t.Errorf("%s: a session allocates %.2f× its byte floor, want at most %.2f×", s.name, ratio, s.bound)
		}
	}
}
