package shamir

import (
	"errors"
	"testing"
	"testing/quick"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/randx"
)

func TestShareReconstructRoundTrip(t *testing.T) {
	g := randx.New(1)
	for _, cfg := range []struct{ t, n int }{{1, 3}, {1, 4}, {2, 5}, {3, 10}, {0, 1}} {
		secret := field.Rand(g)
		shares := Share(secret, cfg.t, cfg.n, g)
		if len(shares) != cfg.n {
			t.Fatalf("share count = %d", len(shares))
		}
		got := Reconstruct(PartyPoints(cfg.n), shares)
		if got != secret {
			t.Fatalf("t=%d n=%d: reconstructed %d, want %d", cfg.t, cfg.n, got, secret)
		}
	}
}

func TestReconstructFromSubset(t *testing.T) {
	g := randx.New(2)
	secret := field.FromInt64(-123456)
	shares := Share(secret, 2, 7, g)
	pts := PartyPoints(7)
	// Any 3 = t+1 points suffice.
	subPts := []field.Elem{pts[1], pts[4], pts[6]}
	subShares := []field.Elem{shares[1], shares[4], shares[6]}
	if got := Reconstruct(subPts, subShares); got != secret {
		t.Fatalf("subset reconstruction = %d", field.ToInt64(got))
	}
}

func TestTooFewSharesGiveWrongSecretAlmostSurely(t *testing.T) {
	g := randx.New(3)
	secret := field.Elem(42)
	wrong := 0
	for trial := 0; trial < 50; trial++ {
		shares := Share(secret, 2, 5, g)
		pts := PartyPoints(5)
		// Only 2 shares for a degree-2 polynomial.
		got := Reconstruct(pts[:2], shares[:2])
		if got != secret {
			wrong++
		}
	}
	if wrong < 45 {
		t.Fatalf("under-threshold reconstruction succeeded too often: %d/50 wrong", wrong)
	}
}

func TestShareIsAdditivelyHomomorphic(t *testing.T) {
	g := randx.New(4)
	a, b := field.FromInt64(1000), field.FromInt64(-300)
	sa := Share(a, 1, 4, g)
	sb := Share(b, 1, 4, g)
	sum := make([]field.Elem, 4)
	for i := range sum {
		sum[i] = field.Add(sa[i], sb[i])
	}
	if got := Reconstruct(PartyPoints(4), sum); field.ToInt64(got) != 700 {
		t.Fatalf("homomorphic sum = %d", field.ToInt64(got))
	}
}

func TestLocalShareProductsReconstructProduct(t *testing.T) {
	// The BGW multiplication identity: pointwise products of degree-t
	// shares form a degree-2t sharing of the product, reconstructable
	// with 2t+1 points.
	g := randx.New(5)
	a, b := field.FromInt64(77), field.FromInt64(-13)
	const tdeg, n = 1, 4 // 2t+1 = 3 <= 4
	sa := Share(a, tdeg, n, g)
	sb := Share(b, tdeg, n, g)
	prod := make([]field.Elem, n)
	for i := range prod {
		prod[i] = field.Mul(sa[i], sb[i])
	}
	got := Reconstruct(PartyPoints(n), prod)
	if field.ToInt64(got) != -1001 {
		t.Fatalf("product reconstruction = %d, want -1001", field.ToInt64(got))
	}
}

func TestLagrangeWeightsSumToOne(t *testing.T) {
	// Interpolating the constant polynomial 1: Σ λ_i = 1.
	for _, n := range []int{1, 2, 3, 5, 9, 20} {
		w := LagrangeAtZero(PartyPoints(n))
		var s field.Elem
		for _, wi := range w {
			s = field.Add(s, wi)
		}
		if s != 1 {
			t.Fatalf("n=%d: Σλ = %d", n, s)
		}
	}
}

func TestLagrangeWeightsInterpolateIdentity(t *testing.T) {
	// f(x) = x has f(0) = 0: Σ λ_i x_i = 0.
	pts := PartyPoints(5)
	w := LagrangeAtZero(pts)
	var s field.Elem
	for i, wi := range w {
		s = field.Add(s, field.Mul(wi, pts[i]))
	}
	if s != 0 {
		t.Fatalf("Σλ·x = %d, want 0", s)
	}
}

func TestReconstructWithWeightsMatchesReconstruct(t *testing.T) {
	g := randx.New(6)
	secret := field.Rand(g)
	shares := Share(secret, 2, 6, g)
	pts := PartyPoints(6)
	w := LagrangeAtZero(pts)
	if ReconstructWithWeights(w, shares) != Reconstruct(pts, shares) {
		t.Fatal("weight-based reconstruction disagrees")
	}
}

func TestShareHidesSecret(t *testing.T) {
	// A single share's distribution must not depend on the secret:
	// compare coarse means for secret=0 vs secret=p/2 over many trials.
	g := randx.New(7)
	const trials = 20000
	mean := func(secret field.Elem) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(Share(secret, 1, 3, g)[0])
		}
		return sum / trials
	}
	m0 := mean(0)
	m1 := mean(field.Elem(field.Modulus / 2))
	mid := float64(field.Modulus) / 2
	for _, m := range []float64{m0, m1} {
		if m < 0.95*mid || m > 1.05*mid {
			t.Fatalf("share mean %v far from uniform midpoint %v", m, mid)
		}
	}
}

func TestShareRoundTripProperty(t *testing.T) {
	f := func(seed uint64, raw int64) bool {
		g := randx.New(seed)
		v := raw % field.MaxSignedValue
		secret := field.FromInt64(v)
		shares := Share(secret, 1, 4, g)
		return field.ToInt64(Reconstruct(PartyPoints(4), shares)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShareInvalidThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Share(1, 3, 3, randx.New(1))
}

// shareRows returns n rows of m elements each.
func shareRows(n, m int) [][]field.Elem {
	rows := make([][]field.Elem, n)
	for i := range rows {
		rows[i] = make([]field.Elem, m)
	}
	return rows
}

// TestDealingIsOneDegreeTPolynomial: for every dealer, the seeded peers'
// rows are their twin streams' next draws, and all p rows — the dealer's
// written over its secrets — are points of one polynomial of degree t
// through (0, secret): any t+1 of them interpolate the secret and every
// other row. Both ends of every stream stay in step.
func TestDealingIsOneDegreeTPolynomial(t *testing.T) {
	for _, cfg := range []struct{ p, t int }{{3, 1}, {4, 1}, {5, 2}, {10, 4}, {10, 9}} {
		points := PartyPoints(cfg.p)
		for dealer := 0; dealer < cfg.p; dealer++ {
			for _, m := range []int{0, 1, 17} {
				seed := uint64(1000*cfg.p + 10*cfg.t + dealer)
				src := randx.New(seed)
				secrets := make([]field.Elem, m)
				for k := range secrets {
					secrets[k] = field.Rand(src)
				}
				want := append([]field.Elem(nil), secrets...)
				d := &NewDealings(cfg.p, cfg.t)[dealer]
				mine, theirs := make([]*randx.RNG, cfg.p), make([]*randx.RNG, cfg.p)
				for _, j := range d.Peers {
					mine[j], theirs[j] = randx.New(seed+uint64(j)+1), randx.New(seed+uint64(j)+1)
				}
				rows := shareRows(cfg.p, m)
				rows[dealer] = secrets
				d.Share(rows, secrets, mine)
				for _, j := range d.Peers {
					drawn := make([]field.Elem, m)
					Draw(drawn, theirs[j])
					for k := range drawn {
						if rows[j][k] != drawn[k] {
							t.Fatalf("P=%d t=%d dealer %d: seeded peer %d's share %d is not its stream's draw", cfg.p, cfg.t, dealer, j, k)
						}
					}
					if a, b := mine[j].Uint64(), theirs[j].Uint64(); a != b {
						t.Fatalf("P=%d t=%d dealer %d: the ends of peer %d's stream diverge", cfg.p, cfg.t, dealer, j)
					}
				}
				// Interpolate from the t+1 parties from dealer on, cyclically.
				var xs []field.Elem
				var base []int
				for i := 0; i <= cfg.t; i++ {
					base = append(base, (dealer+i)%cfg.p)
					xs = append(xs, points[(dealer+i)%cfg.p])
				}
				for k := range want {
					ys := make([]field.Elem, len(base))
					for i, b := range base {
						ys[i] = rows[b][k]
					}
					if got := Reconstruct(xs, ys); got != want[k] {
						t.Fatalf("P=%d t=%d dealer %d: element %d reconstructs to %d, want %d", cfg.p, cfg.t, dealer, k, got, want[k])
					}
					for i := 0; i < cfg.p; i++ {
						w := make([]field.Elem, len(xs))
						lagrangeAt(w, xs, points[i])
						var v field.Elem
						for n := range ys {
							v = field.Add(v, field.Mul(w[n], ys[n]))
						}
						if v != rows[i][k] {
							t.Fatalf("P=%d t=%d dealer %d: party %d's share %d is off the degree-%d polynomial", cfg.p, cfg.t, dealer, i, k, cfg.t)
						}
					}
				}
			}
		}
	}
}

func TestDealingMisusePanics(t *testing.T) {
	secrets := make([]field.Elem, 4)
	streams := []*randx.RNG{randx.New(1), randx.New(2), randx.New(3)}
	d := &NewDealings(3, 1)[0]
	cases := map[string]func(){
		"t = 0":        func() { NewDealings(3, 0) },
		"t = parties":  func() { NewDealings(3, 3) },
		"too few rows": func() { d.Share(shareRows(2, 4), secrets, streams) },
		"ragged rows":  func() { d.Share(append(shareRows(2, 4), make([]field.Elem, 3)), secrets, streams) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				err, _ := recover().(error)
				var v *invariant.Error
				if !errors.As(err, &v) {
					t.Errorf("%s: want an invariant.Violation panic, got %v", name, err)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkShare4Parties(b *testing.B) {
	g := randx.New(1)
	for i := 0; i < b.N; i++ {
		Share(12345, 1, 4, g)
	}
}

// dealingSink keeps BenchmarkDealingShare's output live.
var dealingSink [][]field.Elem

// BenchmarkDealingShare deals whole vectors at the two covariance
// workloads' noise-vector shapes, party 0 dealing; ns/op ÷ len compares
// with BenchmarkShare4Parties.
func BenchmarkDealingShare(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		p, t, m int
	}{{"P4_t1_len7260", 4, 1, 7260}, {"P10_t4_len3240", 10, 4, 3240}} {
		b.Run(cfg.name, func(b *testing.B) {
			g := randx.New(1)
			secrets := make([]field.Elem, cfg.m)
			for k := range secrets {
				secrets[k] = field.Rand(g)
			}
			d := &NewDealings(cfg.p, cfg.t)[0]
			streams := make([]*randx.RNG, cfg.p)
			for _, j := range d.Peers {
				streams[j] = randx.New(uint64(j))
			}
			rows := shareRows(cfg.p, cfg.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Share(rows, secrets, streams)
			}
			dealingSink = rows
		})
	}
}

func BenchmarkReconstructWithWeights(b *testing.B) {
	g := randx.New(1)
	shares := Share(12345, 1, 4, g)
	w := LagrangeAtZero(PartyPoints(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReconstructWithWeights(w, shares)
	}
}
