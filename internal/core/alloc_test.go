package core

import (
	"runtime"
	"testing"

	"sqm/internal/poly"
)

// TestReleaseAllocationsIndependentOfColumns: a covariance release, and
// a polynomial sum of the products of neighbouring columns, allocate per
// round, not per column. The clients' streams are one array, the
// quantized columns one (the builder keeps them as they lie, uncopied),
// the engine's embeddings of them one, and every party's rows of an
// input round one, so 48 more columns
// cost fewer than 48 more allocations — less than one per column — where
// each used to cost several. Each count is the fewest of five releases,
// as in bgw's TestInputRoundAllocatesOneRowArray.
func TestReleaseAllocationsIndependentOfColumns(t *testing.T) {
	const m, few, many = 200, 16, 64
	pairs := func(n int) *poly.Multi {
		monos := make([]poly.Monomial, n-1)
		for j := range monos {
			monos[j] = poly.Monomial{Coef: 1, Exps: make([]int, n)}
			monos[j].Exps[j], monos[j].Exps[j+1] = 1, 1
		}
		return poly.MustMulti(poly.MustPolynomial(n, monos...))
	}
	for _, c := range []struct {
		name string
		kind EngineKind
	}{
		{"covariance", EngineBGW}, {"polynomial", EngineBGW},
	} {
		kind := c.kind
		allocs := func(n int) int {
			x := randMatrix(m, n, 1/float64(n), 3)
			p := Params{Gamma: 64, Mu: 100, Engine: kind, Parties: 4, Seed: 5}
			f := pairs(n)
			release := func() {
				var err error
				if c.name == "covariance" {
					_, _, err = Covariance(x, p)
				} else {
					_, _, err = EvaluatePolynomialSum(f, x, p)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			release()
			fewest := -1
			for i := 0; i < 5; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				release()
				runtime.ReadMemStats(&after)
				if got := int(after.Mallocs - before.Mallocs); fewest < 0 || got < fewest {
					fewest = got
				}
			}
			return fewest
		}
		a, b := allocs(few), allocs(many)
		t.Logf("%s on %v at m = %d: %d allocations for %d columns, %d for %d", c.name, kind, m, a, few, b, many)
		if b-a >= many-few {
			t.Errorf("%s on %v: %d columns cost %d allocations, %d columns %d: want fewer than %d more", c.name, kind, many, b, few, a, many-few)
		}
	}
}

// TestLRStepAllocatesLessThanItsBatch: a warm gradient step gathers its
// batch into the array the previous step used, so it allocates less than
// half of the (d+1)·B·8·P bytes it took when every step copied the
// batch's rows of every column into fresh slots that lived as long as the
// engine. The shape is lr_chan's (m = 2 000, d = 50, P = 4 over a
// ChanMesh) at a fixed batch of B = 200, so no step regrows the array;
// the count is the fewest bytes of five runs of five steps each.
func TestLRStepAllocatesLessThanItsBatch(t *testing.T) {
	const m, d, B, P, steps = 2000, 50, 200, 4, 5
	x, y := lrTestData(m, d, 17)
	proto, err := NewLRProtocol(x, y, Params{Gamma: 18, Mu: 1e5, Engine: EngineActorBGW, Parties: P, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer proto.Close()
	w := make([]float64, d)
	batch := make([]int, B)
	for k := range batch {
		batch[k] = k * (m / B)
	}
	step := func() {
		if _, _, err := proto.GradientSum(w, batch); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		step()
	}
	fewest := uint64(0)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range steps {
			step()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / steps; run == 0 || got < fewest {
			fewest = got
		}
	}
	copyBytes := uint64((d + 1) * B * 8 * P)
	t.Logf("one step at m = %d, d = %d, B = %d, P = %d: %d bytes; the batch copy is %d", m, d, B, P, fewest, copyBytes)
	if fewest >= copyBytes/2 {
		t.Errorf("a step allocates %d bytes, want fewer than half of the batch copy, %d", fewest, copyBytes/2)
	}
}
