package bgw

import (
	"runtime"
	"sync"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

// WorkerTunable is the optional engine surface for tuning the bounded
// worker pool that parallelizes the local share arithmetic of batched
// rounds (MulBatch and DotBatch products). Both BGW engines
// implement it; the circuit executor uses it to apply
// ExecOptions.Workers. Worker count only affects wall-clock: the pool
// runs randomness-free arithmetic (share products, inner products), and
// every sharing draws serially from the party's own stream, so shares
// and opened outputs are the same for every setting.
type WorkerTunable interface {
	// SetWorkers bounds the per-level worker pool: n <= 0 restores the
	// default (runtime.NumCPU()); explicit positive values are honored
	// as given, so tests can pin the chunked work discipline on any
	// machine. Returns the effective bound.
	SetWorkers(n int) int
}

// effectiveWorkers resolves a configured pool bound: n <= 0 means
// runtime.NumCPU() (the NumCPU-capped default); explicit positive
// values pass through so a pinned pool size means the same chunking on
// every machine.
func effectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// clampWorkers additionally caps the bound at the job count (each
// worker must own at least one job for the chunk split to be
// meaningful).
func clampWorkers(n, jobs int) int {
	n = effectiveWorkers(n)
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// parallelChunks splits [0, n) into contiguous chunks, one per worker
// of the configured bound (clamped to n), and runs fn(start, end) for
// each, concurrently when there is more than one. Writers must target
// disjoint index ranges; fn must not draw randomness.
func parallelChunks(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(c*n/workers, (c+1)*n/workers)
	}
	wg.Wait()
}

// shareScratch is the grow-only working memory of the sharing sites of
// one engine or one actor party, touched only from its driving
// goroutine: sharing a vector allocates nothing once the scratch has
// seen the session's largest batch.
type shareScratch struct {
	buf  []field.Elem
	rows [][]field.Elem
}

// elems returns n scratch elements with arbitrary contents, valid until
// the next call on s.
func (s *shareScratch) elems(n int) []field.Elem {
	s.buf = growElems(s.buf, n)
	return s.buf
}

// share Shamir-shares secrets among p parties from rng and returns the
// party-major sub-share rows (rows[j][k] is party j's share of
// secrets[k]), valid until the next call on s.
func (s *shareScratch) share(secrets []field.Elem, p, t int, rng *randx.RNG) [][]field.Elem {
	n := len(secrets)
	buf := s.elems((p + t) * n)
	if s.rows == nil {
		s.rows = make([][]field.Elem, p)
	}
	for j := range s.rows {
		s.rows[j] = buf[j*n : (j+1)*n]
	}
	shamir.ShareVec(s.rows, secrets, t, rng, buf[p*n:])
	return s.rows
}

// growElems returns scratch resized to at least n elements, reusing the
// backing array when it already fits.
func growElems(scratch []field.Elem, n int) []field.Elem {
	if cap(scratch) >= n {
		return scratch[:n]
	}
	return make([]field.Elem, n)
}
