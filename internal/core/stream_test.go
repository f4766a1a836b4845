package core

import (
	"math"
	"testing"

	"sqm/internal/dp"
	"sqm/internal/linalg"
)

func TestStreamMatchesOneShotExactly(t *testing.T) {
	x := randMatrix(60, 6, 0.6, 30)
	p := Params{Gamma: 64, Mu: 100, NumClients: 6, Seed: 31}
	oneShot, _, err := Covariance(x, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCovarianceStream(6, p)
	if err != nil {
		t.Fatal(err)
	}
	// Same records, three uneven batches.
	for _, span := range [][2]int{{0, 13}, {13, 40}, {40, 60}} {
		batch := linalg.NewMatrix(span[1]-span[0], 6)
		for i := range batch.Data {
			batch.Data[i] = x.Data[span[0]*6+i]
		}
		if err := s.Add(batch); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rows() != 60 {
		t.Fatalf("Rows = %d", s.Rows())
	}
	streamed, tr, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range oneShot.Data {
		if oneShot.Data[i] != streamed.Data[i] {
			t.Fatalf("entry %d: one-shot %v vs streamed %v", i, oneShot.Data[i], streamed.Data[i])
		}
	}
	if tr.Scale != 64*64 {
		t.Fatalf("Scale = %v", tr.Scale)
	}
}

// TestStreamLedgerMatchesOneShot: the streamed release is the one-shot
// release, so with the same Params both leave the accountant the same
// entry.
func TestStreamLedgerMatchesOneShot(t *testing.T) {
	x := randMatrix(60, 6, 0.6, 30)
	ledger := func(run func(p Params) error) float64 {
		p := Params{Gamma: 64, Mu: 1e6, NumClients: 6, Seed: 31, Acct: dp.NewAccountant(0)}
		if err := run(p); err != nil {
			t.Fatal(err)
		}
		eps, _ := p.Acct.Epsilon(1e-5)
		return eps
	}
	oneShot := ledger(func(p Params) error {
		_, _, err := Covariance(x, p)
		return err
	})
	streamed := ledger(func(p Params) error {
		s, err := NewCovarianceStream(6, p)
		if err == nil {
			err = s.Add(x)
		}
		if err == nil {
			_, _, err = s.Finalize()
		}
		return err
	})
	if oneShot != streamed || math.IsInf(oneShot, 0) || oneShot <= 0 {
		t.Fatalf("ledger: one-shot eps = %v, streamed eps = %v", oneShot, streamed)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewCovarianceStream(0, Params{Gamma: 4}); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	if _, err := NewCovarianceStream(3, Params{Gamma: 4, Engine: EngineBGW, Parties: 4}); err == nil {
		t.Fatal("BGW streaming must be rejected")
	}
	s, err := NewCovarianceStream(3, Params{Gamma: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(linalg.NewMatrix(2, 4)); err == nil {
		t.Fatal("column mismatch must be rejected")
	}
}

func TestStreamCannotBeReused(t *testing.T) {
	s, err := NewCovarianceStream(2, Params{Gamma: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(randMatrix(5, 2, 0.5, 33)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(randMatrix(5, 2, 0.5, 34)); err == nil {
		t.Fatal("Add after Finalize must be rejected")
	}
	if _, _, err := s.Finalize(); err == nil {
		t.Fatal("double Finalize must be rejected")
	}
}

func TestStreamOverflowGuardAccumulates(t *testing.T) {
	// Each batch is fine alone; the accumulated row count must still
	// trip the field bound.
	s, err := NewCovarianceStream(2, Params{Gamma: 1 << 26, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := randMatrix(1000, 2, 1, 35)
	sawOverflow := false
	for k := 0; k < 300; k++ {
		if err := s.Add(batch); err == ErrFieldOverflow {
			sawOverflow = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawOverflow {
		t.Fatal("accumulated batches should eventually trip the field bound")
	}
}
