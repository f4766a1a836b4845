package sqm_test

import (
	"os"
	"sync"
	"testing"

	"sqm"
	"sqm/internal/bgw"
	"sqm/internal/transport"
)

// benchOptions keeps the per-iteration cost small enough for testing.B
// while exercising every experiment end to end. Paper-scale runs go
// through cmd/sqmbench -full.
func benchOptions() sqm.ExperimentOptions {
	return sqm.ExperimentOptions{Runs: 1, Seed: 7}
}

var printOnce sync.Map

// runExperiment executes one paper experiment per iteration and prints
// its rows once, so `go test -bench` regenerates the same tables the
// paper reports.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := sqm.RunExperiment(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			b.StopTimer()
			for _, t := range tables {
				if _, err := t.WriteTo(os.Stdout); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFigure2 regenerates the PCA utility panels (Figure 2).
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure3 regenerates the LR accuracy curves (Figure 3).
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates the γ-sweep of sensitivity and noise
// overheads (Figure 4).
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates the DPSGD-vs-Approx-Poly comparison
// (Figure 5).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable1 prints the asymptotic complexity summary (Table I).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2 regenerates the n-sweep timing table (Table II).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3 prints the threat-model comparison (Table III).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4 regenerates the m-sweep timing table (Table IV).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5 regenerates the P-sweep timing table (Table V).
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkAblations regenerates the design-decision studies
// (coefficient scaling, fused gates, rounding, noise families, Taylor
// order, MPC engines, sparse Gram).
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// benchDot measures one fused inner-product gate (share two length-n
// vectors, Dot, reshare, open) on an Evaluator backend.
func benchDot(b *testing.B, mk func() (bgw.Evaluator, error)) {
	const n = 256
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i%17) - 8
		ys[i] = int64(i%11) - 5
	}
	eng, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := eng.InputVec(0, xs)
		c := eng.InputVec(1, ys)
		if got := eng.Open(eng.Dot(a, c)); got == 0 {
			b.Fatal("dot opened 0")
		}
	}
	if err := eng.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDotTransport compares the BGW parties' share traffic over
// the in-memory channel mesh (NewEngine's) against the same traffic over
// loopback TCP sockets, for the same arithmetic.
func BenchmarkDotTransport(b *testing.B) {
	cfg := bgw.Config{Parties: 4, Seed: 5}
	b.Run("chan", func(b *testing.B) {
		benchDot(b, func() (bgw.Evaluator, error) { return bgw.NewEngine(cfg) })
	})
	b.Run("tcp", func(b *testing.B) {
		benchDot(b, func() (bgw.Evaluator, error) {
			mesh, err := transport.NewTCPMesh(cfg.Parties)
			if err != nil {
				return nil, err
			}
			return bgw.NewActorEngine(cfg, mesh)
		})
	})
}
