// Package dpbudgetfixture exercises the dpbudget analyzer: a value
// derived from a DP noise draw may only escape (here: fmt output) if a
// function on its dataflow path consults the dp.Accountant. The flow
// below crosses two call boundaries before reaching the sink, so only
// the interprocedural engine can connect the draw to the release.
package dpbudgetfixture

import (
	"fmt"
	"sync"

	"sqm/internal/dp"
	"sqm/internal/obs"
	"sqm/internal/randx"
)

// draw samples the mechanism's noise: its result is a DP release in
// the making.
func draw(g *randx.RNG, mu float64) int64 {
	return g.Skellam(mu)
}

// forward is the second hop: the noisy value crosses it untouched.
func forward(v int64) int64 { return v + 1 }

// Bad releases the noisy aggregate with no accountant on the path.
func Bad(g *randx.RNG) {
	v := draw(g, 8)
	fmt.Println(forward(v)) // want "DP-noisy value escapes via fmt.Println"
}

// Accounted meters the release before printing: one dp.Accountant
// call anywhere in the function covers the flows through it.
func Accounted(g *randx.RNG, acct *dp.Accountant) {
	v := draw(g, 8)
	acct.AddSkellam(8, 8, 8)
	fmt.Println(forward(v))
}

// Suppressed shows a reviewed escape hatch.
func Suppressed(g *randx.RNG) {
	v := draw(g, 8)
	//lint:ignore dpbudget fixture demonstrating a reviewed suppression
	fmt.Println(v)
}

// SuppressedMultiline shows one directive covering a call spread over
// several lines: diagnostics anchor at the argument positions, and the
// directive's range extends over the whole statement.
func SuppressedMultiline(g *randx.RNG) {
	v, w := draw(g, 8), draw(g, 8)
	//lint:ignore dpbudget fixture demonstrating a multi-line suppression
	fmt.Println(
		v,
		w,
	)
}

// noiseAttrs is an attribute constructor outside obs: its result holds
// obs.Attr values, so a call into it from another package is a
// telemetry sink.
func noiseAttrs(v int64) []obs.Attr { return []obs.Attr{obs.Int64("z", v)} }

// fillShared draws the noise onto the caller's vector in place through a
// sampler shared by every stream of a release; the slice Add returns is
// that vector, carrying the draws.
func fillShared(g *randx.RNG, dst []int64) []int64 {
	s := randx.NewSkellamSampler(8)
	return s.Add(g, dst)
}

// BadSampler releases a vector a sampler drew onto, unmetered.
func BadSampler(g *randx.RNG) {
	v := fillShared(g, make([]int64, 4))
	fmt.Println(v) // want "DP-noisy value escapes via fmt.Println"
}

// AccountedSampler meters the same release before printing it.
func AccountedSampler(g *randx.RNG, acct *dp.Accountant) {
	v := fillShared(g, make([]int64, 4))
	acct.AddSkellam(8, 8, 8)
	fmt.Println(v)
}

// drawParallel draws every holder's vector on a goroutine of its own,
// each through a sampler of its own, and joins: a worker's draws reach
// the caller through the vector it wrote.
func drawParallel(gs []*randx.RNG) [][]int64 {
	out := make([][]int64, len(gs))
	var wg sync.WaitGroup
	for h, g := range gs {
		out[h] = make([]int64, 4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := randx.NewSkellamSampler(8)
			out[h] = s.Add(g, out[h])
		}()
	}
	wg.Wait()
	return out
}

// BadParallelSampler releases a vector drawn on a worker goroutine after
// the join, unmetered.
func BadParallelSampler(gs []*randx.RNG) {
	out := drawParallel(gs)
	fmt.Println(out[0][0]) // want "DP-noisy value escapes via fmt.Println"
}

// AccountedParallelSampler meters the same release before printing it.
func AccountedParallelSampler(gs []*randx.RNG, acct *dp.Accountant) {
	out := drawParallel(gs)
	acct.AddSkellam(8, 8, 8)
	fmt.Println(out[0][0])
}

// Good prints only noise-free values.
func Good(rounds int) {
	fmt.Printf("finished %d rounds\n", rounds)
}
