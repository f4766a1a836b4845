package dp

import (
	"fmt"

	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// Booking is the receipt of one charged Skellam release: only
// Accountant.AddSkellam and AddSubsampledSkellam mint one, on a nil
// accountant too (which records nothing), and a release's noise opens
// only to a Booking. The zero Booking is no receipt: every reader panics
// on it.
type Booking struct{ minted bool }

// check panics unless b was minted by a booking method.
func (b Booking) check() {
	if !b.minted {
		panic(invariant.Violation("dp: a release's noise read without a booking"))
	}
}

// Noise is a release's Skellam noise: one vector per noise holder, each
// the sum of its clients' draws. The vectors are fresh (NewNoise) or the
// caller's array (NoiseOnto, which only a Booking mints), and their
// integers are reachable only through Vectors, which takes the release's
// Booking; every fmt verb that calls Format prints it redacted.
type Noise struct {
	// vecs returns the holders' vectors. A closure, not a slice or a
	// pointer: where fmt prints a Noise by reflection — under %p, or in an
	// unexported field of another struct, under any verb — a func value
	// is a code address, and a pointer under a verb fmt does not expect
	// is printed with what it points to.
	vecs func() [][]int64
}

// NewNoise returns holders zero vectors of dims entries, carved from one
// array.
func NewNoise(holders, dims int) Noise {
	flat := make([]int64, holders*dims)
	vecs := make([][]int64, holders)
	for h := range vecs {
		vecs[h] = flat[h*dims : (h+1)*dims : (h+1)*dims]
	}
	return Noise{vecs: func() [][]int64 { return vecs }}
}

// NoiseOnto returns the noise of a release with one holder whose vector
// is dst, under the release's booking: every Draw adds onto dst in place,
// so the aggregate the release opens holds its noise without a second
// vector of its length.
func NoiseOnto(b Booking, dst []int64) Noise {
	b.check()
	vecs := [][]int64{dst}
	return Noise{vecs: func() [][]int64 { return vecs }}
}

// Draw adds one client's draws from g onto holder h's vector through s.
// It allocates nothing, so a sampler on its caller's stack stays there.
func (n Noise) Draw(h int, s *randx.SkellamSampler, g *randx.RNG) {
	s.Add(g, n.vecs()[h])
}

// Vectors opens the holders' vectors to the release's booking.
func (n Noise) Vectors(b Booking) [][]int64 {
	b.check()
	return n.vecs()
}

// Format prints the noise redacted, whatever the verb. fmt calls it
// wherever it can call a method: not on a Noise in an unexported field of
// another struct, nor under %p, where it prints by reflection and finds
// only the closure that holds the vectors.
func (n Noise) Format(f fmt.State, _ rune) {
	fmt.Fprint(f, "dp.Noise(redacted)")
}
