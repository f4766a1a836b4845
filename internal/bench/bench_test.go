package bench

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sqm/internal/core"
	"sqm/internal/dataset"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{Runs: 1, RealBGWBudget: 5e6, Seed: 7}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "*"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTableWriteTo(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Runs != 3 || o.RealBGWBudget != 2e8 || o.Seed != 42 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{Runs: 9}.Defaults()
	if o2.Runs != 9 {
		t.Fatal("explicit values must be kept")
	}
}

// allTiny runs All once for the tests that read it: Figure 2 alone
// takes most of this package's test time.
var allTiny = sync.OnceValue(func() []*Table {
	o := tiny()
	o.TinyLR = true
	return All(o)
})

func TestByID(t *testing.T) {
	for _, id := range []string{"fig4", "table1", "table3"} {
		tabs, err := ByID(id, tiny())
		if err != nil || len(tabs) == 0 {
			t.Fatalf("ByID(%q) = %v, %v", id, tabs, err)
		}
	}
	// The retired speed experiments are unknown ids like any other, and
	// the error names the ids that are not.
	for _, id := range []string{"plans", "kernels", "nope"} {
		if _, err := ByID(id, tiny()); err == nil || !strings.Contains(err.Error(), IDs) {
			t.Fatalf("ByID(%q) error = %v, want the unknown-experiment error listing %q", id, err, IDs)
		}
	}
	if testing.Short() {
		t.Skip("short mode: All runs Figure 2")
	}
	var ids []string
	for _, tbl := range allTiny() {
		ids = append(ids, tbl.ID)
	}
	const paper = "fig2-KDDCUP fig2-ACSIncome fig2-CiteSeer fig2-Gene fig3 fig4 fig5 table1 table2 table3 table4 table5"
	if got := strings.Join(ids, " "); got != paper {
		t.Fatalf("All returned %q, want the paper's figures and tables in paper order: %q", got, paper)
	}
}

func TestFigure4Shape(t *testing.T) {
	tbl := Figure4(tiny())
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 gamma values", len(tbl.Rows))
	}
	// Both overheads strictly decreasing in gamma.
	prevS, prevN := 1e300, 1e300
	for _, row := range tbl.Rows {
		s := parse(t, row[1])
		n := parse(t, row[4])
		if s >= prevS {
			t.Fatalf("sensitivity overhead not decreasing: %v -> %v", prevS, s)
		}
		if n >= prevN {
			t.Fatalf("noise overhead not decreasing: %v -> %v", prevN, n)
		}
		prevS, prevN = s, n
	}
	// The last noise overhead is small relative to the Gaussian std
	// (the analytic overhead √((¾)²+9d/γ)−¾ is ≈9% of ¾ at γ=65536).
	last := tbl.Rows[len(tbl.Rows)-1]
	if g := parse(t, last[3]); parse(t, last[4]) > 0.15*g {
		t.Fatalf("noise overhead at gamma=65536 is %v vs sigma %v", parse(t, last[4]), g)
	}
}

func TestProfileCurves(t *testing.T) {
	tbl := Profile(tiny())
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	prev := -1.0
	for _, row := range tbl.Rows {
		sk := parse(t, row[1])
		ga := parse(t, row[2])
		// eps decreases as delta grows; Skellam stays within a hair of
		// Gaussian at this mu.
		if prev >= 0 && sk >= prev {
			t.Fatalf("eps should shrink with delta: %v", tbl.Rows)
		}
		prev = sk
		if sk < ga-1e-9 || sk > ga+0.01 {
			t.Fatalf("Skellam %v strays from Gaussian %v", sk, ga)
		}
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 2 {
		t.Fatal("Table1 must list PCA and LR")
	}
	t3 := Table3()
	if len(t3.Rows) != 5 {
		t.Fatal("Table3 must list the five approaches")
	}
	if !strings.Contains(t3.Rows[4][0], "SQM") {
		t.Fatal("Table3 must end with this work")
	}
}

func TestEpochsForMapping(t *testing.T) {
	cases := map[float64]int{0.5: 2, 1: 5, 2: 8, 4: 10, 8: 10}
	for eps, want := range cases {
		if got := epochsFor(eps); got != want {
			t.Fatalf("epochsFor(%v) = %d, want %d", eps, got, want)
		}
	}
}

func TestEstimatorsGrowCorrectly(t *testing.T) {
	// PCA ops grow quadratically in n, linearly in m and P.
	a, _ := estimatePCAOps(100, 10, 4, 1, 4)
	b, _ := estimatePCAOps(100, 20, 4, 1, 4)
	if float64(b) < 3*float64(a) {
		t.Fatalf("PCA ops should grow ~n²: %d -> %d", a, b)
	}
	c, _ := estimateLROps(100, 10, 4, 1, 4)
	d, _ := estimateLROps(200, 10, 4, 1, 4)
	if float64(d) < 1.8*float64(c) {
		t.Fatalf("LR ops should grow ~m: %d -> %d", c, d)
	}
}

// TestEstimatorsEqualTheEngineMetering: estimatePCAOps / estimateLROps
// are what Tables II/IV/V extrapolate their starred cells from, so they
// must be the engine's FieldOps exactly — for the covariance, and for LR
// set-up plus one full-batch step — not merely grow like them.
func TestEstimatorsEqualTheEngineMetering(t *testing.T) {
	for _, s := range []struct{ m, n, parties int }{{50, 8, 4}, {100, 16, 4}, {40, 12, 10}} {
		threshold := (s.parties - 1) / 2
		params := core.Params{
			Gamma: 18, Mu: 1e6, NumClients: s.parties,
			Engine: core.EngineBGW, Parties: s.parties, Threshold: threshold, Seed: 1,
		}
		_, tr, err := core.Covariance(timingData(s.m, s.n, 1), params)
		if err != nil {
			t.Fatal(err)
		}
		if est, _ := estimatePCAOps(s.m, s.n, s.parties, threshold, s.parties); est != tr.Stats.FieldOps {
			t.Errorf("covariance %+v: estimated %d FieldOps, engine metered %d", s, est, tr.Stats.FieldOps)
		}

		d := s.n - 1
		ds, err := dataset.ACSIncomeLike("CA", s.m, 1, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := core.NewLRProtocol(ds.X, ds.Labels, params)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, s.m)
		for i := range batch {
			batch[i] = i
		}
		_, tr, err = proto.GradientSum(make([]float64, d), batch)
		proto.Close()
		if err != nil {
			t.Fatal(err)
		}
		metered := proto.SetupStats().FieldOps + tr.Stats.FieldOps
		if est, _ := estimateLROps(s.m, d, s.parties, threshold, s.parties); est != metered {
			t.Errorf("LR %+v: estimated %d FieldOps, engine metered %d", s, est, metered)
		}
	}
}

func TestPCATimingRealAndExtrapolated(t *testing.T) {
	o := tiny()
	real := pcaTiming(o, 50, 8, 4)
	if real.extrapolated || real.total <= 0 {
		t.Fatalf("small cell should run real BGW: %+v", real)
	}
	// Simulated latency floor: 2 rounds (input, opening) x 100 ms.
	if real.total.Seconds() < 0.2 {
		t.Fatalf("total %v below the 2-round latency floor", real.total)
	}
	o.RealBGWBudget = 1e5
	ex := pcaTiming(o, 50, 32, 4)
	if !ex.extrapolated || ex.total <= 0 {
		t.Fatalf("large cell should extrapolate: %+v", ex)
	}
}

func TestLRTimingExtrapolated(t *testing.T) {
	o := tiny()
	o.RealBGWBudget = 2e4 // force the calibration-and-scale path
	r := lrTiming(o, 60, 40, 4)
	if !r.extrapolated {
		t.Fatal("tiny budget should force extrapolation")
	}
	if r.total <= 0 || r.noise <= 0 || r.noise >= r.total {
		t.Fatalf("implausible extrapolated times: %+v", r)
	}
}

func TestLRTimingRuns(t *testing.T) {
	o := tiny()
	r := lrTiming(o, 40, 8, 4)
	if r.extrapolated || r.total <= 0 || r.noise <= 0 {
		t.Fatalf("LR timing = %+v", r)
	}
	if r.noise >= r.total {
		t.Fatal("noise time must be below total time")
	}
}

func TestTable2ShapeSmall(t *testing.T) {
	tbl := Table2(tiny())
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 4 PCA + 4 LR", len(tbl.Rows))
	}
	// PCA time grows with n. Read the measured column: it prints
	// milliseconds, and the modeled one rounds a 4 ms run at n = 64 onto
	// the same 0.30 s latency floor as the run at n = 8.
	first := parse(t, tbl.Rows[0][4])
	last := parse(t, tbl.Rows[3][4])
	if last <= first {
		t.Fatalf("PCA time must grow with n: %v -> %v", first, last)
	}
}

func TestTable4And5ShapeSmall(t *testing.T) {
	t4 := Table4(tiny())
	if len(t4.Rows) != 8 {
		t.Fatalf("table4 rows = %d", len(t4.Rows))
	}
	// Noise-injection time flat in m for LR (last four rows).
	first := parse(t, t4.Rows[4][3])
	last := parse(t, t4.Rows[7][3])
	if last > first*2+0.05 {
		t.Fatalf("LR noise time should be flat in m: %v -> %v", first, last)
	}
	t5 := Table5(tiny())
	if len(t5.Rows) != 6 {
		t.Fatalf("table5 rows = %d", len(t5.Rows))
	}
	// PCA total grows with P.
	if parse(t, t5.Rows[2][2]) < parse(t, t5.Rows[0][2]) {
		t.Fatalf("PCA time should grow with P: %v", t5.Rows)
	}
}

func TestFastAblations(t *testing.T) {
	o := tiny()
	fused := AblationFusedGates(o)
	if len(fused.Rows) != 2 || fused.Rows[0][3] != "yes" {
		t.Fatalf("fused ablation = %+v", fused.Rows)
	}
	// Fusion must dominate on messages.
	if parse(t, fused.Rows[0][1]) >= parse(t, fused.Rows[1][1]) {
		t.Fatal("fused gate should use fewer messages")
	}
	round := AblationRounding(o)
	for _, row := range round.Rows {
		if parse(t, row[1]) >= parse(t, row[2]) {
			t.Fatalf("stochastic bias should undercut nearest at gamma=%s: %v", row[0], row)
		}
	}
	noise := AblationSkellamVsGaussian(o)
	prev := 1e300
	for _, row := range noise.Rows {
		premium := parse(t, row[3])
		if premium < 0 || premium >= prev {
			t.Fatalf("Skellam premium must shrink with mu: %v", noise.Rows)
		}
		prev = premium
	}
	transport := AblationNoiseTransport(o)
	if len(transport.Rows) != 3 {
		t.Fatalf("transport ablation rows = %d, want 3: %v", len(transport.Rows), transport.Notes)
	}
	for _, row := range transport.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("transport ablation aggregate differs: %v", row)
		}
	}
	sparse := AblationSparseGram(o)
	if parse(t, sparse.Rows[1][2]) != 0 {
		t.Fatalf("sparse Gram must match dense exactly: %v", sparse.Rows)
	}
	coef := AblationCoefficientScaling(o)
	for _, row := range coef.Rows {
		if parse(t, row[3]) <= 1 {
			t.Fatalf("per-degree scheme should need more noise: %v", row)
		}
	}
}

func TestFigure2SmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tabs := allTiny()[:4] // TestByID pins the order: Figure 2's four datasets lead
	for _, tbl := range tabs {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s has no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			exact := parse(t, row[2])
			central := parse(t, row[3])
			local := parse(t, row[4])
			if central > exact+1e-6 || local > exact+1e-6 {
				t.Fatalf("%s: no DP method may beat exact: %v", tbl.ID, row)
			}
			// The largest-gamma SQM column should not lose badly to central.
			sqm := parse(t, row[len(row)-1])
			if sqm < 0.5*central {
				t.Fatalf("%s: SQM %v collapsed vs central %v (row %v)", tbl.ID, sqm, central, row)
			}
		}
	}
}

func TestFigure3TinyShape(t *testing.T) {
	o := tiny()
	o.TinyLR = true
	tbl := Figure3(o)
	if len(tbl.Rows) != 4*5 {
		t.Fatalf("rows = %d, want 4 states x 5 eps", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		nonpriv := parse(t, row[2])
		dpsgd := parse(t, row[3])
		sqmBig := parse(t, row[len(row)-1])
		if nonpriv < 0.6 {
			t.Fatalf("non-private accuracy %v too low on %s", nonpriv, row[0])
		}
		for _, v := range []float64{dpsgd, sqmBig} {
			if v < 0.3 || v > 1 {
				t.Fatalf("implausible accuracy %v in %v", v, row)
			}
		}
	}
}

func TestFigure5SmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl := Figure5(tiny())
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if gap := parse(t, row[3]); gap > 0.12 {
			t.Fatalf("Approx-Poly gap %v too large at eps=%s", gap, row[0])
		}
	}
}
