package bgw

import (
	"sync"
	"unsafe"

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

// share deals secrets by d from the dealer's stream ends and returns the
// party-major sub-share rows (rows[j][k] is party j's share of
// secrets[k]), valid until the next call on s; the dealer's own row is
// secrets, overwritten with its shares.
func (s *shareScratch) share(secrets []field.Elem, d *shamir.Dealing, streams []*randx.RNG) [][]field.Elem {
	n, p := len(secrets), len(d.Weights)
	s.buf = growElems(s.buf, p*n)
	if s.rows == nil {
		s.rows = make([][]field.Elem, p)
	}
	for j := range s.rows {
		s.rows[j] = s.buf[j*n : (j+1)*n]
	}
	s.rows[d.Dealer] = secrets
	d.Share(s.rows, secrets, streams)
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

// arenaBytes caps one arena chunk, and arenaFirst is the length of the
// first: chunks double from small so that the thousands of tiny engines
// the tests build stay cheap, and stop at 32 KB so that a long session
// does not pay for half-filled large chunks (DESIGN.md "Per-gate cost").
const (
	arenaBytes = 32 << 10
	arenaFirst = 16
)

// arena carves values of T out of chunks for one engine or party: the
// per-gate handles, commands and slots that would otherwise be one heap
// object each. A carved slice is three-index sliced, so appending to it
// copies instead of growing into its neighbour. Nothing is handed back
// or reused: a chunk is freed by the collector once nothing carved from
// it is referenced, and no other engine ever sees it.
type arena[T any] struct {
	free []T // the rest of the current chunk
	size int // the current chunk's length
}

// take returns n zero values, len == cap. A run longer than a quarter
// of the largest chunk gets an array of its own.
func (a *arena[T]) take(n int) []T {
	most := a.most()
	if n > most/4 {
		return make([]T, n)
	}
	if len(a.free) < n {
		a.size = min(max(2*a.size, arenaFirst), most)
		for a.size < n {
			a.size *= 2
		}
		a.free = make([]T, a.size)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// most returns the length of the largest chunk: arenaBytes of T.
func (a *arena[T]) most() int {
	var zero T
	return max(arenaBytes/int(max(unsafe.Sizeof(zero), 1)), arenaFirst)
}

// put carves one T holding v and returns a pointer to it.
func (a *arena[T]) put(v T) *T {
	p := &a.take(1)[0]
	*p = v
	return p
}

// clone carves a copy of s.
func (a *arena[T]) clone(s []T) []T {
	c := a.take(len(s))
	copy(c, s)
	return c
}
