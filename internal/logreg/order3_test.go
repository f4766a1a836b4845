package logreg

import (
	"hash/fnv"
	"math"
	"testing"

	"sqm/internal/approx"
	"sqm/internal/core"
	"sqm/internal/dp"
	"sqm/internal/linalg"
)

// TestTrainSQMOrder3ModelUnchangedBySingleBuild pins the weights the SQM
// trainers fit at one seed, on every engine, and that each books its run
// once. The order-3 row is the model the order-3 trainer fitted when it
// still built a probe protocol for the sensitivities and a second one for
// the run: calibrating from core.LR3Sensitivity and sharing the data once
// leaves every weight bit in place. The order-1 and GLM rows are FNV-1a
// digests of math.Float64bits(W) recorded before the trainers shared one
// SGD loop. (γ = 8, d = 20, q = 0.05 over 20 rounds is the shape whose μ
// dp.TestCalibrateSkellamMuPinnedOnBenchmarkLR pins.)
func TestTrainSQMOrder3ModelUnchangedBySingleBuild(t *testing.T) {
	order3 := []uint64{
		0x3fb4b80c0a5c5404, 0x3fd2a1c9b5d4c7ba, 0x3fbe21869c6d8d77, 0x3fd24bbc0ff069e3, 0x3fa4642e143c03cd,
		0x3fc4dc13072e268c, 0xbfc4f0df1cf019ee, 0x3fb4421261cfc236, 0xbfdb547990cfe2bb, 0xbfc84e440575336e,
		0xbfc48e05831aa237, 0xbfcb7bc8d462b8da, 0x3fd5842a494b3ed2, 0x3fdda2a4047f027d, 0xbfb4f6de52200c34,
		0xbfce05eb41037ac9, 0x3fc5ad5411c9b194, 0x3fc12f4343239bff, 0x3fc293e145c831e7, 0x3fb192864da75f1d,
	}
	link, err := approx.SigmoidTaylor(1)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallTask(t, 200, 50, 20, 21)
	for _, c := range []struct {
		name   string
		train  func(*linalg.Matrix, []float64, Config) (*Model, error)
		q      float64
		digest uint64
	}{
		{"order3", TrainSQMOrder3, 0.05, digestOf(order3)},
		{"order1", TrainSQM, 0.05, 0x1d3095ab08f67dc3},
		// At q = 0.01 about one round in eight draws an empty batch, which
		// the GLM trainer skips.
		{"glm", func(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) { return TrainGLM(link, x, y, cfg) }, 0.01, 0x7fee48defc25ab04},
	} {
		for _, engine := range []core.EngineKind{core.EnginePlain, core.EngineBGW, core.EngineActorBGW, core.EngineActorBGWNet} {
			acct := dp.NewAccountant(0)
			cfg := Config{Eps: 1, Delta: 1e-5, Gamma: 8, Epochs: 1, SampleRate: c.q, Seed: 22, Engine: engine, Parties: 3, Acct: acct}
			m, err := c.train(ds.X, ds.Labels, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, engine, err)
			}
			bits := make([]uint64, len(m.W))
			for j, w := range m.W {
				bits[j] = math.Float64bits(w)
			}
			if got := digestOf(bits); got != c.digest {
				t.Errorf("%s %v: weight digest %#x, want %#x", c.name, engine, got, c.digest)
			}
			if c.name == "order3" {
				for j, b := range bits {
					if b != order3[j] {
						t.Errorf("%s %v: w[%d] = %#x, want %#x", c.name, engine, j, b, order3[j])
					}
				}
			}
			// One release on the ledger, within the budget it was calibrated to.
			if eps, _ := acct.Epsilon(cfg.Delta); acct.Releases() != 1 || eps > cfg.Eps*(1+1e-9) {
				t.Errorf("%s %v: ledger has %d releases at ε = %v", c.name, engine, acct.Releases(), eps)
			}
		}
	}
}

// digestOf is FNV-1a over the little-endian bytes of bits.
func digestOf(bits []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range bits {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
