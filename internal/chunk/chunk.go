// Package chunk holds the two pieces of plumbing the protocol layers
// share: Run, the one loop that splits a range of independent jobs
// across goroutines, and Arena, the one chunked allocator that per-gate
// objects are carved from. It imports nothing of the project, so bgw,
// circuit and core all build on it.
package chunk

import (
	"sync"
	"unsafe"
)

// Run splits [0, n) into min(n, k) contiguous chunks — chunk c of k′ is
// [c·n/k′, (c+1)·n/k′), so the bounds depend only on n and k′ — and runs
// fn(lo, hi) on each: every chunk but the last on a goroutine of its
// own, the last on the caller's, and returns when all have. A k below 1
// counts as 1. Writers must target disjoint ranges; fn may draw only
// from streams its chunk owns, so what it computes does not depend on
// the schedule or on k.
func Run(n, k int, fn func(lo, hi int)) {
	chunks := min(n, max(k, 1))
	if chunks <= 1 {
		// Before the WaitGroup, which the goroutines make escape: one
		// chunk allocates nothing (a party behind a mesh, every level).
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 0; c < chunks-1; c++ {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	fn((chunks-1)*n/chunks, n)
	wg.Wait()
}

// maxBytes caps one arena chunk, and first is the length of the first:
// chunks double from small so that the thousands of tiny engines and
// builders the tests make stay cheap, and stop at 32 KB so that a long
// session does not pay for half-filled large chunks (DESIGN.md "Per-gate
// cost").
const (
	maxBytes = 32 << 10
	first    = 16
)

// Arena carves values of T out of chunks for one owner — an engine, a
// party, a builder: the per-gate handles, commands and slots that would
// otherwise be one heap object each. A carved slice is three-index
// sliced, so appending to it copies instead of growing into its
// neighbour. Nothing is handed back or reused: a chunk is freed by the
// collector once nothing carved from it is referenced, and no other
// owner ever sees it. The zero Arena is ready to use; it is not safe for
// concurrent use.
type Arena[T any] struct {
	free []T // the rest of the current chunk
	size int // the current chunk's length
}

// Take returns n zero values, len == cap, from the chunks. A run longer
// than a quarter of the largest chunk gets an array of its own, so an
// owner that carves what a round takes as one run — an input round's
// columns, however many and however long — pays one allocation for all
// of it.
func (a *Arena[T]) Take(n int) []T {
	most := a.Most()
	if n > most/4 {
		return make([]T, n)
	}
	if len(a.free) < n {
		a.size = min(max(2*a.size, first), most)
		for a.size < n {
			a.size *= 2
		}
		a.free = make([]T, a.size)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// Most returns the length of the largest chunk: 32 KB of T, and never
// fewer than the first chunk's 16.
func (a *Arena[T]) Most() int {
	var zero T
	return max(maxBytes/int(max(unsafe.Sizeof(zero), 1)), first)
}

// Put carves one T holding v and returns a pointer to it.
func (a *Arena[T]) Put(v T) *T {
	p := &a.Take(1)[0]
	*p = v
	return p
}

// Clone carves a copy of s.
func (a *Arena[T]) Clone(s []T) []T {
	c := a.Take(len(s))
	copy(c, s)
	return c
}
