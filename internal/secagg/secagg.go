// Package secagg implements pairwise-mask secure aggregation (Bonawitz
// et al., the paper's reference [45]): every pair of clients derives a
// shared mask stream from a common seed; client i adds the masks of
// pairs where it is the smaller index and subtracts the others, so the
// server's sum of all masked vectors telescopes to the true aggregate
// while every individual message is uniformly masked.
//
// In SQM the *noise aggregation* Σ_j Z_j is purely linear, so it can
// ride this cheaper transport while BGW handles the polynomial part —
// the engines ablation quantifies the trade. Semi-honest, no-dropout
// setting, matching the paper's threat model.
package secagg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/transport"
)

// Group is one aggregation cohort over a fixed client set and vector
// length.
type Group struct {
	n      int
	length int
	// pairSeed[i][j] (i < j) keys the mask stream shared by i and j; in
	// a deployment these come from a Diffie-Hellman exchange, here from
	// the group seed.
	pairSeed [][]uint64
	messages atomic.Int64
}

// NewGroup prepares a cohort of n clients aggregating length-sized
// vectors. seed stands in for the pairwise key agreement.
func NewGroup(n, length int, seed uint64) (*Group, error) {
	if n < 2 {
		return nil, fmt.Errorf("secagg: need at least 2 clients, got %d", n)
	}
	if length < 1 {
		return nil, fmt.Errorf("secagg: need a positive vector length, got %d", length)
	}
	g := &Group{n: n, length: length, pairSeed: make([][]uint64, n)}
	root := randx.New(seed ^ 0x5eca99)
	for i := 0; i < n; i++ {
		g.pairSeed[i] = make([]uint64, n)
		for j := i + 1; j < n; j++ {
			g.pairSeed[i][j] = root.Uint64()
		}
	}
	return g, nil
}

// pairStream returns the mask stream a pair keyed by seed shares in the
// given round, at its start: both members (and a server that recovered
// the seed) draw the same elements from it through field.PairMask.
func pairStream(seed, round uint64) *randx.RNG {
	return randx.New(seed ^ (round * 0x9e3779b97f4a7c15))
}

// Mask produces client i's masked contribution for one round: the
// signed values embedded into the field plus the telescoping pairwise
// masks. The result is safe to hand to the untrusted server.
func (g *Group) Mask(client int, round uint64, values []int64) ([]field.Elem, error) {
	if client < 0 || client >= g.n {
		return nil, fmt.Errorf("secagg: client %d out of range [0, %d)", client, g.n)
	}
	if len(values) != g.length {
		return nil, fmt.Errorf("secagg: vector length %d, want %d", len(values), g.length)
	}
	out := make([]field.Elem, g.length)
	for k, v := range values {
		out[k] = field.FromInt64(v)
	}
	for other := 0; other < g.n; other++ {
		if other != client {
			field.PairMask(out, client, other, pairStream(g.pairSeed[min(client, other)][max(client, other)], round))
		}
	}
	g.messages.Add(1)
	return out, nil
}

// Aggregate is the server's step: sum all masked contributions (the
// masks cancel) and decode the signed totals. It requires every
// client's message — the no-dropout setting.
func (g *Group) Aggregate(masked [][]field.Elem) ([]int64, error) {
	if len(masked) != g.n {
		return nil, fmt.Errorf("secagg: got %d contributions, want all %d clients", len(masked), g.n)
	}
	acc := make([]field.Elem, g.length)
	for _, m := range masked {
		if len(m) != g.length {
			return nil, fmt.Errorf("secagg: contribution length %d, want %d", len(m), g.length)
		}
		for k := range acc {
			acc[k] = field.Add(acc[k], m[k])
		}
	}
	out := make([]int64, g.length)
	for k, v := range acc {
		out[k] = field.ToInt64(v)
	}
	return out, nil
}

// Messages returns the client→server messages sent so far (one per
// Mask call; the pairwise key agreement is a one-time setup).
func (g *Group) Messages() int64 { return g.messages.Load() }

// AggregateOver runs one aggregation round with every client on its own
// goroutine and the masked vectors carried over a transport mesh:
// client j masks values[j] and sends it to endpoint 0, which plays the
// aggregator, sums the contributions (the masks cancel) and decodes the
// signed totals. The same channel or TCP meshes that carry the BGW
// share traffic work here, so the masked messages are real traffic with
// measured counters.
func (g *Group) AggregateOver(mesh transport.Mesh, round uint64, values [][]int64) ([]int64, error) {
	if mesh.Parties() != g.n {
		return nil, fmt.Errorf("secagg: mesh has %d endpoints for %d clients", mesh.Parties(), g.n)
	}
	if len(values) != g.n {
		return nil, fmt.Errorf("secagg: got %d contributions, want all %d clients", len(values), g.n)
	}
	errs := make([]error, g.n)
	var total []int64
	var wg sync.WaitGroup
	for j := 0; j < g.n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			conn := mesh.Conn(j)
			masked, err := g.Mask(j, round, values[j])
			if err != nil {
				errs[j] = err
				conn.Close()
				return
			}
			if j != 0 {
				buf := make([]byte, 8*g.length)
				for k, v := range masked {
					binary.BigEndian.PutUint64(buf[8*k:], uint64(v))
				}
				errs[j] = conn.Send(0, buf)
				return
			}
			// Endpoint 0 aggregates: own contribution plus one message
			// from every other client.
			acc := masked
			for from := 1; from < g.n; from++ {
				buf, err := conn.Recv(from)
				if err != nil {
					errs[0] = err
					conn.Close()
					return
				}
				if len(buf) != 8*g.length {
					errs[0] = fmt.Errorf("secagg: contribution from client %d has %d bytes, want %d", from, len(buf), 8*g.length)
					conn.Close()
					return
				}
				for k := range acc {
					acc[k] = field.Add(acc[k], field.Elem(binary.BigEndian.Uint64(buf[8*k:])))
				}
			}
			out := make([]int64, g.length)
			for k, v := range acc {
				out[k] = field.ToInt64(v)
			}
			total = out
		}(j)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return total, nil
}

// AggregateNoiseOver is AggregateNoise with the masked shares carried
// over a transport mesh; bit-identical to AggregateNoise for the same
// RNG streams.
func (g *Group) AggregateNoiseOver(mesh transport.Mesh, round uint64, mu float64, clientRNGs []*randx.RNG) ([]int64, error) {
	if len(clientRNGs) != g.n {
		return nil, fmt.Errorf("secagg: %d RNGs for %d clients", len(clientRNGs), g.n)
	}
	share := mu / float64(g.n)
	values := make([][]int64, g.n)
	for j := 0; j < g.n; j++ {
		values[j] = clientRNGs[j].SkellamVec(g.length, share)
	}
	return g.AggregateOver(mesh, round, values)
}

// AggregateNoise is the SQM convenience: every client samples its
// Skellam share Sk(mu/n) per coordinate locally, masks it, and the
// server learns only the aggregate noise vector — exactly the
// distributed-DP noise of Algorithm 3, over the cheap linear transport.
func (g *Group) AggregateNoise(round uint64, mu float64, clientRNGs []*randx.RNG) ([]int64, error) {
	if len(clientRNGs) != g.n {
		return nil, fmt.Errorf("secagg: %d RNGs for %d clients", len(clientRNGs), g.n)
	}
	share := mu / float64(g.n)
	masked := make([][]field.Elem, g.n)
	for j := 0; j < g.n; j++ {
		var err error
		masked[j], err = g.Mask(j, round, clientRNGs[j].SkellamVec(g.length, share))
		if err != nil {
			return nil, err
		}
	}
	return g.Aggregate(masked)
}
