package bgw

import "sqm/internal/field"

// DotPair names one fused inner product of a batch.
type DotPair struct{ A, B *SharedVec }

// DotBatch evaluates many fused inner products in one communication
// round: the local share products run across workers (0 defers to the
// engine's configured bound, which itself defaults to
// runtime.NumCPU()), then one batched resharing restores degree t from
// the parties' own streams, so shares and opened values equal calling
// Dot in a loop for every worker count.
func (e *Engine) DotBatch(pairs []DotPair, workers int) []*Shared {
	n := len(pairs)
	if n == 0 {
		return []*Shared{}
	}
	if workers <= 0 {
		workers = e.workers
	}
	// Validation and metering run serially up front: the counts depend
	// only on the batch shape, never on share values.
	for _, p := range pairs {
		e.checkSameVec(p.A, p.B)
		e.stats.FieldOps += int64(e.p * p.A.Len())
	}
	highs := make([]field.Elem, e.p*n)
	parallelChunks(n, workers, func(start, end int) {
		for m := start; m < end; m++ {
			for i := 0; i < e.p; i++ {
				highs[i*n+m] = field.DotAcc(0, pairs[m].A.shares[i], pairs[m].B.shares[i])
			}
		}
	})
	return e.reshareBatch(highs, n)
}
