// Package noisedrawfixture exercises the noisedraw analyzer: outside the
// packages allowed to sample noise, every use of a randx noise sampler is
// a finding — a call, a method value or a method expression — wherever
// the value goes afterwards, printed, returned or accounted. A release
// draws its noise as a dp.Noise, which opens only to a dp.Booking.
package noisedrawfixture

import (
	"fmt"
	"sync"

	"sqm/internal/dp"
	"sqm/internal/randx"
)

// draw samples the mechanism's noise.
func draw(g *randx.RNG, mu float64) int64 {
	return g.Skellam(mu) // want "raw noise draw randx.RNG.Skellam"
}

// Bad releases the noisy value with no accountant in sight.
func Bad(g *randx.RNG) {
	fmt.Println(draw(g, 8) + 1)
}

// Accounted consults the accountant before printing: the draw is still
// one a dp.Noise would have made, and so still a finding.
func Accounted(g *randx.RNG, acct *dp.Accountant) {
	acct.AddSkellam(8, 8, 8)
	fmt.Println(g.Skellam(8)) // want "raw noise draw randx.RNG.Skellam"
}

// Suppressed shows a reviewed escape hatch.
func Suppressed(g *randx.RNG) int64 {
	//lint:ignore noisedraw fixture demonstrating a reviewed suppression
	return g.Skellam(8)
}

// SuppressedMultiline shows one directive covering a statement spread
// over several lines.
func SuppressedMultiline(g *randx.RNG) {
	//lint:ignore noisedraw fixture demonstrating a multi-line suppression
	fmt.Println(
		g.Skellam(8),
		g.Skellam(8),
	)
}

// fillShared draws onto the caller's vector through a shared sampler;
// building the sampler draws nothing.
func fillShared(g *randx.RNG, dst []int64) []int64 {
	s := randx.NewSkellamSampler(8)
	return s.Add(g, dst) // want "raw noise draw randx.SkellamSampler.Add"
}

// drawParallel draws every holder's vector on a goroutine of its own.
func drawParallel(gs []*randx.RNG) [][]int64 {
	out := make([][]int64, len(gs))
	var wg sync.WaitGroup
	for h, g := range gs {
		out[h] = make([]int64, 4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := randx.NewSkellamSampler(8)
			out[h] = s.Add(g, out[h]) // want "raw noise draw randx.SkellamSampler.Add"
		}()
	}
	wg.Wait()
	return out
}

// Estimate returns a noisy aggregate straight out of an exported
// function.
func Estimate(g *randx.RNG) int64 {
	return g.SkellamVec(4, 4)[0] // want "raw noise draw randx.RNG.SkellamVec"
}

// Samplers takes the other noise samplers as values, uncalled.
func Samplers(g *randx.RNG) []any {
	return []any{
		g.DiscreteGaussian,           // want "raw noise draw randx.RNG.DiscreteGaussian"
		g.DiscreteGaussianVec,        // want "raw noise draw randx.RNG.DiscreteGaussianVec"
		(*randx.RNG).DiscreteLaplace, // want "raw noise draw randx.RNG.DiscreteLaplace"
	}
}

// Good uses randx for what is not DP noise, and the ledger's own draw.
func Good(g *randx.RNG, acct *dp.Accountant) ([][]int64, int64, float64) {
	n := dp.NewNoise(1, 4)
	s := randx.NewSkellamSampler(8)
	n.Draw(0, &s, g)
	return n.Vectors(acct.AddSkellam(8, 8, 8)), g.StochasticRound(0.5), g.Gaussian(0, 1)
}

var _, _ = fillShared, drawParallel
