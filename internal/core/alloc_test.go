package core

import (
	"runtime"
	"testing"
)

// TestReleaseAllocationsIndependentOfColumns: a covariance release
// allocates per round, not per column. The clients' streams are one
// array, the builder's copies of the columns one, the engine's
// embeddings of them one, and, inline, the rows the hub deals one, so 48
// more columns cost fewer than 48 more allocations — less than one per
// column — where each used to cost several. Each count is the fewest of
// five releases, as in bgw's TestInputRoundAllocatesOneRowArray.
func TestReleaseAllocationsIndependentOfColumns(t *testing.T) {
	const m, few, many = 200, 16, 64
	for _, kind := range []EngineKind{EngineBGW, EngineActorBGW} {
		allocs := func(n int) int {
			x := randMatrix(m, n, 1/float64(n), 3)
			p := Params{Gamma: 64, Mu: 100, Engine: kind, Parties: 4, Seed: 5}
			release := func() {
				if _, _, err := Covariance(x, p); err != nil {
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
		t.Logf("%v at m = %d: %d allocations for %d columns, %d for %d", kind, m, a, few, b, many)
		if b-a >= many-few {
			t.Errorf("%v: %d columns cost %d allocations, %d columns %d: want fewer than %d more", kind, many, b, few, a, many-few)
		}
	}
}
