package logreg

import (
	"math"
	"testing"

	"sqm/internal/core"
	"sqm/internal/dp"
)

// TestTrainSQMOrder3ModelUnchangedBySingleBuild pins the model the
// order-3 trainer fitted when it still built a probe protocol for the
// sensitivities and a second one for the run: calibrating from
// core.LR3Sensitivity and sharing the data once leaves every weight bit
// in place, on the plain engine and behind the actor mesh. (γ = 8,
// d = 20, q = 0.05 over 20 rounds is the shape whose μ
// dp.TestCalibrateSkellamMuPinnedOnBenchmarkLR pins.)
func TestTrainSQMOrder3ModelUnchangedBySingleBuild(t *testing.T) {
	want := []uint64{
		0x3fb4b80c0a5c5404, 0x3fd2a1c9b5d4c7ba, 0x3fbe21869c6d8d77, 0x3fd24bbc0ff069e3, 0x3fa4642e143c03cd,
		0x3fc4dc13072e268c, 0xbfc4f0df1cf019ee, 0x3fb4421261cfc236, 0xbfdb547990cfe2bb, 0xbfc84e440575336e,
		0xbfc48e05831aa237, 0xbfcb7bc8d462b8da, 0x3fd5842a494b3ed2, 0x3fdda2a4047f027d, 0xbfb4f6de52200c34,
		0xbfce05eb41037ac9, 0x3fc5ad5411c9b194, 0x3fc12f4343239bff, 0x3fc293e145c831e7, 0x3fb192864da75f1d,
	}
	ds := smallTask(t, 200, 50, 20, 21)
	for _, engine := range []core.EngineKind{core.EnginePlain, core.EngineActorBGW} {
		acct := dp.NewAccountant(0)
		cfg := Config{Eps: 1, Delta: 1e-5, Gamma: 8, Epochs: 1, SampleRate: 0.05, Seed: 22, Engine: engine, Parties: 3, Acct: acct}
		m, err := TrainSQMOrder3(ds.X, ds.Labels, cfg)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if len(m.W) != len(want) {
			t.Fatalf("%v: %d weights", engine, len(m.W))
		}
		for j, w := range m.W {
			if got := math.Float64bits(w); got != want[j] {
				t.Errorf("%v: w[%d] = %#x, want %#x", engine, j, got, want[j])
			}
		}
		// One release on the ledger, within the budget it was calibrated to.
		if eps, _ := acct.Epsilon(cfg.Delta); acct.Releases() != 1 || eps > cfg.Eps*(1+1e-9) {
			t.Errorf("%v: ledger has %d releases at ε = %v", engine, acct.Releases(), eps)
		}
	}
}
