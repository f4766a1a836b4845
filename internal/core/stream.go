package core

import (
	"fmt"

	"sqm/internal/linalg"
)

// CovarianceStream accumulates the quantized covariance over record
// batches, so databases too large for memory (the KDDCUP shape and
// beyond) can be processed in passes: each batch is quantized with the
// owning clients' randomness, folded into the integer Gram accumulator,
// and discarded. Finalize injects the per-client Skellam shares and
// applies the server's down-scaling with the stages Covariance's plain
// path runs — the one-shot and the streamed version are
// distribution-identical, leave the same ledger entry, and are
// bit-identical when the same records arrive in the same order.
//
// The plaintext engine only: streaming the BGW variant would require
// retaining shares of every batch, which defeats the purpose.
type CovarianceStream struct {
	p     Params
	r     *release // clocked from construction
	n     int
	rows  int
	upper []int64
	done  bool
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
	qd := quantizeByClient(x, &s.p, s.r.rngs)
	maxAbs := float64(qd.MaxAbs())
	newRows := s.rows + x.Rows
	if err := checkFieldBound(maxAbs*maxAbs*float64(newRows) + noiseMargin(s.p.Mu)); err != nil {
		return err
	}
	accumulateGram(qd, s.upper)
	s.rows = newRows
	return nil
}

// Rows returns the records accumulated so far.
func (s *CovarianceStream) Rows() int { return s.rows }

// Finalize injects the Skellam noise and returns the covariance
// estimate; the stream cannot be reused afterwards.
func (s *CovarianceStream) Finalize() (*linalg.Matrix, *Trace, error) {
	if s.done {
		return nil, nil, fmt.Errorf("core: stream already finalized")
	}
	s.done = true
	// Every batch passed Add's field-bound check: booked like Covariance,
	// before the noise is drawn.
	s.p.meter(CovarianceSensitivities(s.p.Gamma, 1, s.n))
	s.r.drawNoiseOnto(s.upper)
	out, tr := s.r.finishGram(s.upper, s.n)
	return out, tr, nil
}
