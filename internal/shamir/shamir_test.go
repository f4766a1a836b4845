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

// TestShareVecMatchesShare pins ShareVec to the scalar oracle: from
// equally seeded streams it produces Share's shares element for element
// and leaves the stream where Share does, so swapping one for the other
// changes no share anywhere downstream.
func TestShareVecMatchesShare(t *testing.T) {
	for _, cfg := range []struct{ p, t int }{{3, 1}, {4, 1}, {5, 2}, {10, 4}, {10, 9}} {
		for _, m := range []int{0, 1, 17, 1000} {
			seed := uint64(100*cfg.p + cfg.t)
			secrets := make([]field.Elem, m)
			src := randx.New(seed + 1)
			for k := range secrets {
				secrets[k] = field.Rand(src)
			}
			vecRNG, refRNG := randx.New(seed), randx.New(seed)
			got := shareRows(cfg.p, m)
			ShareVec(got, secrets, cfg.t, vecRNG, make([]field.Elem, cfg.t*m))
			for k, s := range secrets {
				for i, want := range Share(s, cfg.t, cfg.p, refRNG) {
					if got[i][k] != want {
						t.Fatalf("P=%d t=%d len=%d: party %d share %d = %d, Share gives %d", cfg.p, cfg.t, m, i, k, got[i][k], want)
					}
				}
			}
			if a, b := vecRNG.Uint64(), refRNG.Uint64(); a != b {
				t.Fatalf("P=%d t=%d len=%d: streams diverge after sharing (%d vs %d)", cfg.p, cfg.t, m, a, b)
			}
		}
	}
}

func TestShareVecMisusePanics(t *testing.T) {
	secrets := make([]field.Elem, 4)
	cases := map[string]func(){
		"t = 0":         func() { ShareVec(shareRows(3, 4), secrets, 0, randx.New(1), nil) },
		"t = parties":   func() { ShareVec(shareRows(3, 4), secrets, 3, randx.New(1), make([]field.Elem, 12)) },
		"short scratch": func() { ShareVec(shareRows(5, 4), secrets, 2, randx.New(1), make([]field.Elem, 7)) },
		"ragged dst": func() {
			ShareVec(append(shareRows(2, 4), make([]field.Elem, 3)), secrets, 1, randx.New(1), make([]field.Elem, 4))
		},
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

// shareVecSink keeps BenchmarkShareVec's output live.
var shareVecSink [][]field.Elem

// BenchmarkShareVec shares whole vectors at the two covariance
// workloads' noise-vector shapes; ns/op ÷ len compares with
// BenchmarkShare4Parties.
func BenchmarkShareVec(b *testing.B) {
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
			dst, scratch := shareRows(cfg.p, cfg.m), make([]field.Elem, cfg.t*cfg.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ShareVec(dst, secrets, cfg.t, g, scratch)
			}
			shareVecSink = dst
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
