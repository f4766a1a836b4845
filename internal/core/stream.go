package core

import (
	"fmt"
	"math"

	"sqm/internal/linalg"
	"sqm/internal/randx"
)

// CovarianceStream accumulates the quantized covariance over record
// batches, so databases too large for memory (the KDDCUP shape and
// beyond) can be processed in passes: each batch is quantized with the
// owning clients' randomness, folded into the integer Gram accumulator,
// and discarded. Finalize is one more release (release.evaluate) over the
// accumulated triangle: it checks the field bound, books and draws the
// per-client Skellam shares onto it as Covariance's plain path does, and
// applies the server's down-scaling — the one-shot and the streamed
// version refuse the same records, are distribution-identical, leave the
// same ledger entry, and are bit-identical when the same records arrive
// in the same order.
//
// The plaintext engine only: streaming the BGW variant would require
// retaining shares of every batch, which defeats the purpose.
type CovarianceStream struct {
	p      Params
	r      *release // clocked from construction
	n      int
	rows   int
	maxAbs int64 // the largest |x̂| of every batch accumulated so far
	upper  []int64
	done   bool
	marks  []randx.Mark // the client streams where a batch found them: a refused batch rewinds them
}

// NewCovarianceStream prepares an accumulator for n attributes.
func NewCovarianceStream(n int, p Params) (*CovarianceStream, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one attribute, got %d", n)
	}
	if err := p.normalize(n); err != nil {
		return nil, err
	}
	if p.Engine != EnginePlain {
		return nil, fmt.Errorf("core: streaming covariance supports the plain engine only")
	}
	s := &CovarianceStream{p: p, n: n, upper: make([]int64, n*(n+1)/2)}
	_, clientRNGs := rngFamily(p.Seed, p.NumClients)
	s.r = s.p.begin(clientRNGs)
	return s, nil
}

// Add folds one batch of records (rows of x) into the accumulator.
func (s *CovarianceStream) Add(x *linalg.Matrix) error {
	if s.done {
		return fmt.Errorf("core: stream already finalized")
	}
	if x.Cols != s.n {
		return fmt.Errorf("core: batch has %d columns, want %d", x.Cols, s.n)
	}
	newRows := s.rows + x.Rows
	// Every rounded entry is at least ⌊γ·|x|⌋ in magnitude, and the bound
	// grows with the largest: a batch that fails it even rounded down is
	// refused before it is rounded, and its draws are never made.
	if err := checkFieldBound(gramBound(max(float64(s.maxAbs), leastAbs(x, s.p.Gamma)), newRows) + noiseMargin(s.p.Mu)); err != nil {
		return err
	}
	// Otherwise quantizing draws from every client's stream, and the bound
	// is known only after: a refused batch rewinds them, so that Finalize
	// is still Covariance over the records accepted.
	s.marks = s.marks[:0]
	for _, g := range s.r.rngs {
		s.marks = append(s.marks, g.Mark())
	}
	qd := quantizeByClient(x, &s.p, s.r.rngs)
	maxAbs := max(s.maxAbs, qd.maxAbs())
	// Covariance's bound over every record so far: a batch of small
	// entries after one of large entries is bounded by the large ones.
	if err := checkFieldBound(gramBound(float64(maxAbs), newRows) + noiseMargin(s.p.Mu)); err != nil {
		for j, g := range s.r.rngs {
			g.Rewind(s.marks[j])
		}
		return err
	}
	accumulateGram(qd, s.upper)
	s.rows, s.maxAbs = newRows, maxAbs
	return nil
}

// leastAbs returns the largest ⌊γ·|x|⌋ over the entries of x: the least
// that the largest of their stochastic roundings can be.
func leastAbs(x *linalg.Matrix, gamma float64) float64 {
	var m float64
	for _, v := range x.Data {
		m = max(m, math.Floor(math.Abs(gamma*v)))
	}
	return m
}

// Rows returns the records accumulated so far.
func (s *CovarianceStream) Rows() int { return s.rows }

// Finalize books the release, draws the Skellam noise onto the
// accumulated triangle and returns the covariance estimate; the stream
// cannot be reused afterwards.
func (s *CovarianceStream) Finalize() (*linalg.Matrix, *Trace, error) {
	if s.done {
		return nil, nil, fmt.Errorf("core: stream already finalized")
	}
	s.done = true
	upper, err := s.r.evaluate(gramBound(float64(s.maxAbs), s.rows), sens(CovarianceSensitivities(s.p.Gamma, 1, s.n)), len(s.upper),
		func() ([]int64, error) { return s.upper, nil },
		nil) // plain only: NewCovarianceStream refuses the MPC engines
	if err != nil {
		return nil, nil, err
	}
	out, tr := s.r.finishGram(upper, s.n)
	return out, tr, nil
}
