package bgw

import (
	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

// DotPair names one fused inner product of a batch.
type DotPair struct{ A, B *SharedVec }

// DotBatch evaluates many fused inner products concurrently across
// workers (0 defers to the engine's configured bound, which itself
// defaults to runtime.NumCPU()). All pairs belong to the same
// communication round, exactly as in the sequential path; the opened
// values are identical to calling Dot in a loop because the resharing
// randomness never influences reconstructed secrets — only the shares.
// Pairs split into contiguous chunks with per-chunk forks of the party
// streams taken serially in chunk order, so shares are deterministic
// for a fixed worker count and results merge in pair order.
func (e *Engine) DotBatch(pairs []DotPair, workers int) []*Shared {
	out := make([]*Shared, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = e.workers
	}
	w := clampWorkers(workers, len(pairs))
	if w <= 1 {
		for i, p := range pairs {
			out[i] = e.Dot(p.A, p.B)
		}
		return out
	}
	// Validation and metering run serially up front: the counts depend
	// only on the batch shape, never on share values.
	for _, p := range pairs {
		e.checkSameVec(p.A, p.B)
		e.stats.Messages += int64(e.p * (e.p - 1))
		e.stats.Bytes += 8 * int64(e.p*(e.p-1))
		e.stats.FieldOps += int64(e.p*p.A.Len() + e.p*(e.p+e.t+1))
	}
	chunkRngs := make([][]*randx.RNG, w)
	for c := 0; c < w; c++ {
		chunkRngs[c] = make([]*randx.RNG, e.p)
		for i := 0; i < e.p; i++ {
			chunkRngs[c][i] = e.rngs[i].Fork()
		}
	}
	parallelChunks(len(pairs), w, func(chunk, start, end int) {
		rngs := chunkRngs[chunk]
		acc := make([]field.Elem, e.p)
		for i := start; i < end; i++ {
			p := pairs[i]
			for pi := 0; pi < e.p; pi++ {
				acc[pi] = field.DotAcc(0, p.A.shares[pi], p.B.shares[pi])
			}
			// Degree reduction with chunk-local randomness.
			shares := make([]field.Elem, e.p)
			for pi := 0; pi < e.p; pi++ {
				sub := shamir.Share(acc[pi], e.t, e.p, rngs[pi])
				field.MulAddVec(shares, sub, e.weights[pi])
			}
			out[i] = &Shared{eng: e, shares: shares}
		}
	})
	return out
}
