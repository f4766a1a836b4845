package bgw

import (
	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

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
