// Package shamir implements Shamir's secret sharing over the field of
// package field: the building block of the BGW protocol (Appendix B of
// the paper). A secret s is hidden as the constant term of a random
// degree-t polynomial; party i receives the evaluation at x = i. Any
// t+1 shares reconstruct s by Lagrange interpolation at 0, while any t
// shares are jointly uniform and carry no information about s. Share
// draws the polynomial's t coefficients; Dealing, the BGW engine's one
// vector sharing, fixes it by t pseudorandom points instead, which the
// parties at those points draw for themselves.
package shamir

import (
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// Share splits secret into n shares with threshold t (any t+1 shares
// reconstruct; t or fewer reveal nothing). Party i's share is the
// evaluation of the random polynomial at x = i+1.
func Share(secret field.Elem, t, n int, rng *randx.RNG) []field.Elem {
	if t < 0 || n <= t {
		panic(invariant.Violation("shamir: invalid threshold t=%d for n=%d", t, n))
	}
	coefs := make([]field.Elem, t+1)
	coefs[0] = secret
	for i := 1; i <= t; i++ {
		coefs[i] = field.Rand(rng)
	}
	shares := make([]field.Elem, n)
	for i := 0; i < n; i++ {
		shares[i] = evalPoly(coefs, field.Elem(uint64(i+1)))
	}
	return shares
}

// Dealing is one dealer's seeded Shamir sharing among p parties at
// threshold t: pseudorandom secret sharing (Cramer, Damgård and Ishai,
// TCC 2005). The t parties after the dealer, Peers = J(dealer) =
// dealer+1, …, dealer+t mod p, take their shares from a stream each of
// them shares with the dealer, so nothing is sent to them; the dealer
// draws the same rows from its ends (Draw), and every other party's share
// is the point of the degree-t polynomial through (0, secret) and those t
// points, by Lagrange interpolation. Only the p − 1 − t rows of the
// other peers leave the dealer.
type Dealing struct {
	Dealer int
	Peers  []int // J(dealer), in the order their draws enter the weights
	// Weights[i] interpolates party i's share over the nodes 0 and Peers:
	// Weights[i][0] multiplies the secret and Weights[i][1+m] the draw of
	// Peers[m]. It is nil for a seeded party.
	Weights [][]field.Elem
	// targets are the interpolated parties, the dealer last.
	targets []int
}

// NewDealings returns every party's seeded sharing among p parties at
// threshold t (1 <= t < p), dealer o's at index o.
func NewDealings(p, t int) []Dealing {
	if t < 1 || p <= t {
		panic(invariant.Violation("shamir: invalid threshold t=%d for n=%d", t, p))
	}
	ds := make([]Dealing, p)
	parties := make([]int, p*p)
	weights := make([][]field.Elem, p*p)
	// One block holds, per dealer, the nodes 0, x_j (j in Peers) and every
	// target's weights over them.
	stride := (p - t + 1) * (t + 1)
	block := make([]field.Elem, p*stride)
	for o := range ds {
		order := parties[o*p : (o+1)*p]
		for k := range order {
			order[k] = (o + 1 + k) % p // the dealer comes last
		}
		d := Dealing{Dealer: o, Peers: order[:t:t], targets: order[t:], Weights: weights[o*p : (o+1)*p : (o+1)*p]}
		own := block[o*stride : (o+1)*stride]
		nodes := own[:t+1]
		for m, j := range d.Peers {
			nodes[1+m] = field.Elem(uint64(j + 1))
		}
		for k, i := range d.targets {
			w := own[(k+1)*(t+1) : (k+2)*(t+1)]
			lagrangeAt(w, nodes, field.Elem(uint64(i+1)))
			d.Weights[i] = w
		}
		ds[o] = d
	}
	return ds
}

// Share deals secrets party-major: rows[i][k] becomes party i's share of
// secrets[k] (len(rows) = p, every row as long as secrets). Each seeded
// peer j's row is drawn from streams[j], the dealer's end of the stream
// j holds the other end of; the other rows are interpolated, the
// dealer's last, so rows[Dealer] may be secrets itself. No other row may
// alias secrets. It allocates nothing.
func (d *Dealing) Share(rows [][]field.Elem, secrets []field.Elem, streams []*randx.RNG) {
	if len(rows) != len(d.Weights) {
		panic(invariant.Violation("shamir: Share has %d rows for %d parties", len(rows), len(d.Weights)))
	}
	for i, row := range rows {
		if len(row) != len(secrets) {
			panic(invariant.Violation("shamir: Share row %d has %d elements for %d secrets", i, len(row), len(secrets)))
		}
	}
	for _, j := range d.Peers {
		Draw(rows[j], streams[j])
	}
	for _, i := range d.targets {
		w, row := d.Weights[i], rows[i]
		field.MulConstVec(row, secrets, w[0])
		for m, j := range d.Peers {
			field.MulAddVec(row, rows[j], w[1+m])
		}
	}
}

// Draw fills row with the next len(row) uniform elements of stream: a
// seeded party's shares, which the dealer draws alike from its end.
func Draw(row []field.Elem, stream *randx.RNG) {
	for k := range row {
		row[k] = field.Rand(stream)
	}
}

// evalPoly evaluates the polynomial with the given coefficients (low
// order first) at x by Horner's rule.
func evalPoly(coefs []field.Elem, x field.Elem) field.Elem {
	var v field.Elem
	for i := len(coefs) - 1; i >= 0; i-- {
		v = field.Add(field.Mul(v, x), coefs[i])
	}
	return v
}

// LagrangeAtZero returns the interpolation weights λ_i such that
// f(0) = Σ_i λ_i · f(x_i) for any polynomial f of degree < len(xs),
// where xs are distinct non-zero evaluation points.
func LagrangeAtZero(xs []field.Elem) []field.Elem {
	w := make([]field.Elem, len(xs))
	lagrangeAt(w, xs, 0)
	return w
}

// lagrangeAt leaves in w the weights L_i with f(x) = Σ_i L_i · f(nodes[i])
// for any polynomial f of degree < len(nodes) (distinct nodes).
func lagrangeAt(w, nodes []field.Elem, x field.Elem) {
	for i, ni := range nodes {
		num, den := field.Elem(1), field.Elem(1)
		for j, nj := range nodes {
			if j != i {
				num = field.Mul(num, field.Sub(x, nj))
				den = field.Mul(den, field.Sub(ni, nj))
			}
		}
		w[i] = field.Mul(num, field.Inv(den))
	}
}

// PartyPoints returns the canonical evaluation points 1..n used by
// Share.
func PartyPoints(n int) []field.Elem {
	xs := make([]field.Elem, n)
	for i := range xs {
		xs[i] = field.Elem(uint64(i + 1))
	}
	return xs
}

// Reconstruct recovers the secret from shares at the given points; it
// needs at least degree+1 points for a degree-d sharing and trusts the
// caller to pass consistent shares (semi-honest model).
func Reconstruct(points, shares []field.Elem) field.Elem {
	if len(points) != len(shares) {
		panic(invariant.Violation("shamir: points/shares length mismatch"))
	}
	w := LagrangeAtZero(points)
	var s field.Elem
	for i, sh := range shares {
		s = field.Add(s, field.Mul(w[i], sh))
	}
	return s
}

// ReconstructWithWeights recovers the secret using precomputed Lagrange
// weights (the hot path in BGW, where the party set never changes).
func ReconstructWithWeights(weights, shares []field.Elem) field.Elem {
	if len(weights) != len(shares) {
		panic(invariant.Violation("shamir: weights/shares length mismatch"))
	}
	var s field.Elem
	for i, sh := range shares {
		s = field.Add(s, field.Mul(weights[i], sh))
	}
	return s
}
