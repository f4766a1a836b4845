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
// given client count on four BGW parties and returns the three
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
// keeps its round for the data columns. LR3 loses, besides, each level of
// its cube the degree rule leaves unreshared at P = 4, t = 1
// (lr3ReshareLevels; the square's, since its cube has degree 3t ≤ P−1):
// one round, P(P−1) frames, B·P(P−1) messages and P·B·(P+t+1) field
// operations per level for the B = 8 records of the batch. Seeded dealing
// takes, besides, the t of every remaining dealing's P − 1 rows that the
// dealer's seeded peers draw instead of receive, and leaves FieldOps as
// they are: the covariance's 6 data columns of 30 records lose 6·t frames
// and 6·30·t messages, and each of LR3's lr3ReshareLevels resharings
// P·t frames and B·P·t messages. And since only party 0, which decodes,
// is sent the opening's rows, every release's one opening keeps P − 1 of
// its P(P−1) frames and loses (P−1)² frames and muls·(P−1)² messages,
// leaving FieldOps as they are: every party still publishes its row.
func TestOneClientPerPartyIsAFixedPoint(t *testing.T) {
	const P, th, B = 4, 1, 8
	reshared := int64(lr3ReshareLevels(P, th))
	kept := 2 - reshared
	const peers = (P - 1) * (P - 1) // links the opening no longer uses
	cov, lr, lr3 := sessionStats(t, 4)
	for _, c := range []struct {
		name      string
		got, want bgw.Stats
	}{
		{"covariance", cov, bgw.Stats{
			Rounds:   3 - 1,
			Frames:   54 - 12 - 12 - 6*th - peers,
			Messages: 1296 - 252 - 252 - 6*30*th - 21*peers,
			Bytes:    10368 - 2016 - 2016 - 8*6*30*th - 8*21*peers,
			FieldOps: 5220 - 504 - 588,
		}},
		{"lr", lr, bgw.Stats{Rounds: 3 - 1 - 1, Frames: 36 - 12 - 12 - peers, Messages: 180 - 60 - 60 - 5*peers, Bytes: 1440 - 480 - 480 - 8*5*peers, FieldOps: 652 - 120 - 140}},
		{"lr3", lr3, bgw.Stats{
			Rounds:   5 - 1 - 1 - kept,
			Frames:   60 - 12 - 12 - kept*P*(P-1) - reshared*P*th - peers,
			Messages: 372 - 60 - 60 - kept*B*P*(P-1) - reshared*B*P*th - 5*peers,
			Bytes:    2976 - 480 - 480 - 8*kept*B*P*(P-1) - 8*reshared*B*P*th - 8*5*peers,
			FieldOps: 1260 - 120 - 140 - kept*P*B*(P+th+1),
		}},
	} {
		if c.got != c.want {
			t.Errorf("%s: counters %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

// TestSessionFieldOpsClosedForm pins the engine's FieldOps metering of
// the shapes Tables II, IV and V run (one client per party, threshold
// ⌊(P−1)/2⌋), at P = 4 and P = 10 and at three covariance shapes. With
// e = n(n+1)/2 Gram entries, a covariance over m records and n columns
// meters, summed over the parties, the input sharings m·n·P·(t+1), one
// λ⁻¹·x per noise element at each of the P parties e·P, the Gram's m
// products per entry at every party e·m·P (unreduced: only the opening
// reads them), and one multiplication per opened element P·e. LR set-up
// over d features shares m·(d+1) values: m·(d+1)·P·(t+1); one full-batch
// step meters the affine gates' (d+1)·m terms at every party, the noise
// P·d, the inner products d·m·P and the opening P·d.
func TestSessionFieldOpsClosedForm(t *testing.T) {
	for _, s := range []struct{ m, n, parties int }{{50, 8, 4}, {100, 16, 4}, {40, 12, 10}} {
		m, n, P := int64(s.m), int64(s.n), int64(s.parties)
		th := (P - 1) / 2
		params := Params{
			Gamma: 18, Mu: 1e6, NumClients: s.parties,
			Engine: EngineBGW, Parties: s.parties, Threshold: int(th), Seed: 1,
		}
		_, tr, err := Covariance(randMatrix(s.m, s.n, 0.3, 1), params)
		if err != nil {
			t.Fatal(err)
		}
		e := n * (n + 1) / 2
		if want := m*n*P*(th+1) + e*P + e*m*P + P*e; tr.Stats.FieldOps != want {
			t.Errorf("covariance %+v: FieldOps %d, closed form %d", s, tr.Stats.FieldOps, want)
		}

		d := n - 1
		x, y := lrTestData(s.m, int(d), 1)
		proto, err := NewLRProtocol(x, y, params)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, s.m)
		for i := range batch {
			batch[i] = i
		}
		_, tr, err = proto.GradientSum(make([]float64, d), batch)
		proto.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := proto.SetupStats().FieldOps, m*(d+1)*P*(th+1); got != want {
			t.Errorf("LR set-up %+v: FieldOps %d, closed form %d", s, got, want)
		}
		if want := P*(d+1)*m + P*d + d*m*P + P*d; tr.Stats.FieldOps != want {
			t.Errorf("LR step %+v: FieldOps %d, closed form %d", s, tr.Stats.FieldOps, want)
		}
	}
}

// TestHostedClientsCostOneSharingPerParty: with six clients hosted on
// four parties the two doubly-loaded parties draw their clients' noise
// onto one (unshared) addend each, and the session puts on the wire — and
// meters — exactly what one client per party does.
func TestHostedClientsCostOneSharingPerParty(t *testing.T) {
	hc, hl, hl3 := sessionStats(t, 6)
	c, l, l3 := sessionStats(t, 4)
	if hc != c || hl != l || hl3 != l3 {
		t.Errorf("six hosted clients cost %+v %+v %+v, four cost %+v %+v %+v", hc, hl, hl3, c, l, l3)
	}
}

// TestCapacityBoundIsTightWhenHosted is the numeric edge of the static
// overflow check on a hosted shape (six clients on four parties, so the
// noise a party adds is a sum of shares): for random row counts and noise
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
