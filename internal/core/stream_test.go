package core

import (
	"math"
	"runtime"
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

// TestStreamRefusesWhatOneShotRefuses: the field bound of a stream is
// Covariance's over every record so far — rows · maxAbs², maxAbs over all
// batches — not the current batch's maxAbs times the rows: at γ = 2²⁰ a
// million records of 1.0 pass, and a million more of 0.5, each under the
// bound on its own entries, take the Gram entry past the field's signed
// range, as Covariance over the two million refuses. The stream refuses
// the second batch and releases the first alone.
func TestStreamRefusesWhatOneShotRefuses(t *testing.T) {
	const rows = 1_000_000
	p := Params{Gamma: 1 << 20, Seed: 3}
	ones, halves := linalg.NewMatrix(rows, 1), linalg.NewMatrix(rows, 1)
	for i := range rows {
		ones.Data[i], halves.Data[i] = 1, 0.5
	}
	s, err := NewCovarianceStream(1, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(ones); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if err := s.Add(halves); err != ErrFieldOverflow {
		t.Fatalf("second batch: err = %v, want ErrFieldOverflow", err)
	}
	out, _, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(0, 0); got != rows {
		t.Fatalf("released %v, want the first batch's %v", got, float64(rows))
	}

	both := linalg.NewMatrix(2*rows, 1)
	copy(both.Data, ones.Data)
	copy(both.Data[rows:], halves.Data)
	if _, _, err := Covariance(both, p); err != ErrFieldOverflow {
		t.Fatalf("one-shot: err = %v, want ErrFieldOverflow", err)
	}
}

// TestRefusedBatchLeavesTheStreamsAsTheyStood: quantizing a batch draws
// from every client's stream, so a batch the field bound refuses must put
// them back — else Finalize's noise, drawn from the streams afterwards,
// is no longer the one-shot release's over the records accepted.
func TestRefusedBatchLeavesTheStreamsAsTheyStood(t *testing.T) {
	p := Params{Gamma: 1 << 20, Mu: 1e4, Seed: 5}
	x := randMatrix(10, 2, 0.6, 51)
	oneShot, _, err := Covariance(x, p)
	if err != nil {
		t.Fatal(err)
	}
	big := linalg.NewMatrix(3_000_000, 2)
	for i := range big.Data {
		big.Data[i] = 0.7
	}
	s, err := NewCovarianceStream(2, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(x); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if err := s.Add(big); err != ErrFieldOverflow {
		t.Fatalf("second batch: err = %v, want ErrFieldOverflow", err)
	}
	streamed, _, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range oneShot.Data {
		if oneShot.Data[i] != streamed.Data[i] {
			t.Errorf("entry %d: one-shot %v, streamed after a refused batch %v", i, oneShot.Data[i], streamed.Data[i])
		}
	}
}

// TestStreamRefusesBeforeRounding: every rounded entry is at least
// ⌊γ·|x|⌋ in magnitude, so a batch the field bound refuses even rounded
// down is refused before it is rounded. Add returns the error the one-shot
// release returns for it, leaves every client stream where a fresh
// stream's stands — it drew nothing — and allocates less than the batch's
// quantized copy; and a batch accepted afterwards is released as a fresh
// stream releases it.
func TestStreamRefusesBeforeRounding(t *testing.T) {
	p := Params{Gamma: 1 << 26, Mu: 1e4, Seed: 5}
	big := linalg.NewMatrix(10_000, 2) // 10 000 · (2²⁶)² ≈ 2⁶⁵, past the signed range
	for i := range big.Data {
		big.Data[i] = 1
	}
	_, _, want := Covariance(big, p)
	if want != ErrFieldOverflow {
		t.Fatalf("one-shot: err = %v, want ErrFieldOverflow", want)
	}
	s, err := NewCovarianceStream(2, p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCovarianceStream(2, p)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.Add(big)
	runtime.ReadMemStats(&after)
	if err != want {
		t.Fatalf("Add: err = %v, want the one-shot's %v", err, want)
	}
	if got, batch := after.TotalAlloc-before.TotalAlloc, uint64(len(big.Data)*8); got >= batch {
		t.Errorf("the refusal allocated %d B, want less than the batch's quantized %d B", got, batch)
	}
	for j, g := range s.r.rngs {
		if g.Mark() != fresh.r.rngs[j].Mark() {
			t.Fatalf("client %d's stream moved on a refused batch", j)
		}
	}
	x := randMatrix(10, 2, 0.6, 51)
	for _, st := range []*CovarianceStream{s, fresh} {
		if err := st.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	wantOut, _, err := fresh.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantOut.Data {
		if got.Data[i] != wantOut.Data[i] {
			t.Errorf("entry %d: %v after a refused batch, %v on a fresh stream", i, got.Data[i], wantOut.Data[i])
		}
	}
}
