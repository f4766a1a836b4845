package bgw

import (
	"sync"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

// parallelChunks splits [0, n) into contiguous chunks, at most chunks
// of them and none empty, and runs fn(start, end) for each, concurrently
// when there is more than one. Writers must target disjoint index
// ranges; fn must not draw randomness.
func parallelChunks(n, chunks int, fn func(start, end int)) {
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(c*n/chunks, (c+1)*n/chunks)
	}
	wg.Wait()
}

// shareScratch is the grow-only working memory of one party's sharing
// sites, touched only from the goroutine driving the party: sharing a
// vector allocates nothing once the scratch has seen the session's
// largest batch.
type shareScratch struct {
	buf  []field.Elem
	rows [][]field.Elem
}

// share Shamir-shares secrets among p parties from rng and returns the
// party-major sub-share rows (rows[j][k] is party j's share of
// secrets[k]), valid until the next call on s.
func (s *shareScratch) share(secrets []field.Elem, p, t int, rng *randx.RNG) [][]field.Elem {
	n := len(secrets)
	s.buf = growElems(s.buf, (p+t)*n)
	if s.rows == nil {
		s.rows = make([][]field.Elem, p)
	}
	for j := range s.rows {
		s.rows[j] = s.buf[j*n : (j+1)*n]
	}
	shamir.ShareVec(s.rows, secrets, t, rng, s.buf[p*n:])
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
