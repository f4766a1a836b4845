package core

import (
	"math"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/linalg"
	"sqm/internal/randx"
)

// sessionStats runs one covariance, one LR step and one LR3 step at the
// given client count on four inline BGW parties and returns the three
// traces' counters. Five feature columns plus the label make six
// columns, so six clients is the one-client-per-column default.
func sessionStats(t *testing.T, clients int) (cov, lr, lr3 bgw.Stats) {
	t.Helper()
	p := Params{Gamma: 18, Mu: 1e6, NumClients: clients, Engine: EngineBGW, Parties: 4, Seed: 7}
	_, tr, err := Covariance(randMatrix(30, 6, 0.4, 3), p)
	if err != nil {
		t.Fatal(err)
	}
	cov = tr.Stats

	x, y := lrTestData(40, 5, 4)
	w := make([]float64, 5)
	batch := []int{1, 2, 3, 5, 8, 13, 21, 34}
	l, err := NewLRProtocol(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, tr, err = l.GradientSum(w, batch); err != nil {
		t.Fatal(err)
	}
	lr = tr.Stats

	p.Gamma = 8
	l3, err := NewLR3Protocol(x, y, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if _, tr, err = l3.GradientSum(w, batch); err != nil {
		t.Fatal(err)
	}
	lr3 = tr.Stats
	return cov, lr, lr3
}

// TestOneClientPerPartyIsAFixedPoint pins the paper's own deployment
// shape (NumClients == Parties, what sqmbench's Tables II/IV/V run): no
// dealer deals two leaves of any sum, so the fold pass must leave rounds,
// frames, messages, bytes and FieldOps exactly where they were measured
// at the commit before the pass existed (b55dcf1) — less, since the last
// multiplicative level is opened unreduced, that level's resharing: one
// round, P(P−1) = 12 frames, muls·P(P−1) messages and P·muls·(P+t+1)
// field operations, with muls = 21 Gram entries, 5 and 5 gradient
// coordinates — and less, since the noise reaches nothing but the opening
// and no party shares it, the noise sharing of the same muls elements per
// dealer: P(P−1) = 12 frames, muls·P(P−1) messages, and P·muls·(P(t+1) − 1)
// field operations (one λ⁻¹·x per element stays). The gradient steps
// share nothing else, so their input round goes with it; the covariance
// keeps its round for the data columns.
func TestOneClientPerPartyIsAFixedPoint(t *testing.T) {
	cov, lr, lr3 := sessionStats(t, 4)
	for _, c := range []struct {
		name      string
		got, want bgw.Stats
	}{
		{"covariance", cov, bgw.Stats{Rounds: 3 - 1, Frames: 54 - 12 - 12, Messages: 1296 - 252 - 252, Bytes: 10368 - 2016 - 2016, FieldOps: 5220 - 504 - 588}},
		{"lr", lr, bgw.Stats{Rounds: 3 - 1 - 1, Frames: 36 - 12 - 12, Messages: 180 - 60 - 60, Bytes: 1440 - 480 - 480, FieldOps: 652 - 120 - 140}},
		{"lr3", lr3, bgw.Stats{Rounds: 5 - 1 - 1, Frames: 60 - 12 - 12, Messages: 372 - 60 - 60, Bytes: 2976 - 480 - 480, FieldOps: 1260 - 120 - 140}},
	} {
		if c.got != c.want {
			t.Errorf("%s: counters %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

// TestHostedClientsCostOneSharingPerParty: with six clients hosted on
// four parties the noise of the two doubly-loaded parties folds into one
// (unshared) addend each, and the session puts on the wire — and meters —
// exactly what one client per party does.
func TestHostedClientsCostOneSharingPerParty(t *testing.T) {
	hc, hl, hl3 := sessionStats(t, 6)
	c, l, l3 := sessionStats(t, 4)
	if hc != c || hl != l || hl3 != l3 {
		t.Errorf("six hosted clients cost %+v %+v %+v, four cost %+v %+v %+v", hc, hl, hl3, c, l, l3)
	}
}

// TestCapacityBoundIsTightWhenHosted is the numeric edge of the static
// overflow check on a hosted shape (six clients on four parties, so the
// noise a party shares is a folded sum): for random row counts and noise
// levels, with a column of ones driving one Gram entry to m·γ², the
// largest γ the bound admits runs and equals Engine: plain bit for bit
// while γ + 1 is refused with ErrFieldOverflow — and the admitted run
// really does come within a fraction of a percent of the field's signed
// range, so the bound has no slack to hide a wrap in.
func TestCapacityBoundIsTightWhenHosted(t *testing.T) {
	g := randx.New(99)
	for trial := 0; trial < 6; trial++ {
		m := 1 + g.IntN(9)
		mu := math.Pow(10, float64(2+g.IntN(6)))
		x := randMatrix(m, 6, 0.9, uint64(trial))
		for i := 0; i < m; i++ {
			x.Set(i, 0, 1)
		}
		bound := func(gamma float64) float64 { return gamma*gamma*float64(m) + noiseMargin(mu) }
		gamma := math.Floor(math.Sqrt(float64(field.MaxSignedValue) / float64(m)))
		for checkFieldBound(bound(gamma)) != nil {
			gamma--
		}
		for checkFieldBound(bound(gamma+1)) == nil {
			gamma++
		}

		p := Params{Gamma: gamma + 1, Mu: mu, Engine: EngineBGW, Parties: 4, Seed: uint64(trial)}
		if _, _, err := Covariance(x, p); err != ErrFieldOverflow {
			t.Fatalf("m=%d γ=%v: err = %v, want ErrFieldOverflow", m, gamma+1, err)
		}
		p.Gamma = gamma
		got, _, err := Covariance(x, p)
		if err != nil {
			t.Fatalf("m=%d γ=%v, one below the boundary: %v", m, gamma, err)
		}
		p.Engine = EnginePlain
		want, _, err := Covariance(x, p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatrixBits(got, want) {
			t.Fatalf("m=%d γ=%v: hosted BGW and plain disagree at the capacity edge", m, gamma)
		}
		if top := want.At(0, 0) * gamma * gamma; top < 0.99*float64(field.MaxSignedValue) {
			t.Fatalf("m=%d γ=%v: largest opened entry %.4g is not at the edge of the field", m, gamma, top)
		}
	}
}

func sameMatrixBits(a, b *linalg.Matrix) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
