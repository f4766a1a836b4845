package bgw

import (
	"testing"

	"sqm/internal/randx"
)

// vecGateEngines is the inline driver and the party goroutines behind a
// channel mesh, five parties each.
func vecGateEngines(t *testing.T) map[string]*Engine {
	cfg := Config{Parties: 5, Seed: 11}
	inline, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Engine{"inline": inline, "mesh": newActorChan(t, cfg)}
}

// TestGatherAndLinCombMatchPlaintext opens both vector gates against
// integer arithmetic on the edge cases: repeated and no indices, negative
// and zero coefficients, a constant on its own, one vector listed twice,
// and no terms at all.
func TestGatherAndLinCombMatchPlaintext(t *testing.T) {
	x := []int64{7, -3, 0, 1 << 40, -9}
	y := []int64{-1, 2, -4, 8, -16}
	for name, e := range vecGateEngines(t) {
		xv, yv := e.InputVec(0, x), e.InputVec(3, y)

		idx := []int{4, 4, 0, 2, 4, 1}
		got := e.OpenVec(e.Gather(xv, idx))
		for k, i := range idx {
			if got[k] != x[i] {
				t.Errorf("%s: Gather element %d = %d, want x[%d] = %d", name, k, got[k], i, x[i])
			}
		}
		if v := e.Gather(xv, nil); v.Len() != 0 {
			t.Errorf("%s: Gather of no indices has %d elements", name, v.Len())
		}

		for _, c := range []struct {
			cs []int64
			c0 int64
		}{
			{[]int64{3, -5}, 0},
			{[]int64{-1, 0}, 11},
			{[]int64{0, 0}, -6},
			{[]int64{1 << 20, -(1 << 20)}, 1},
		} {
			got := e.OpenVec(e.LinComb([]Vec{xv, yv}, c.cs, c.c0))
			for k := range x {
				if want := c.c0 + c.cs[0]*x[k] + c.cs[1]*y[k]; got[k] != want {
					t.Errorf("%s: LinComb%v+%d element %d = %d, want %d", name, c.cs, c.c0, k, got[k], want)
				}
			}
		}
		got = e.OpenVec(e.LinComb([]Vec{xv, xv, e.Gather(yv, []int{0, 0, 0, 0, 0})}, []int64{2, -3, 1}, 0))
		for k := range x {
			if want := -x[k] + y[0]; got[k] != want {
				t.Errorf("%s: a vector listed twice: element %d = %d, want %d", name, k, got[k], want)
			}
		}
		if v := e.LinComb(nil, nil, 5); v.Len() != 0 {
			t.Errorf("%s: LinComb of no terms has %d elements, want the empty vector", name, v.Len())
		}
		// A dot with a gathered, combined column: the LR step's shape.
		u := e.LinComb([]Vec{e.Gather(xv, []int{0, 1, 4}), e.Gather(yv, []int{0, 1, 4})}, []int64{2, -1}, 3)
		want := int64(0)
		for _, i := range []int{0, 1, 4} {
			want += x[i] * (3 + 2*x[i] - y[i])
		}
		if got := e.Open(e.Dot(e.Gather(xv, []int{0, 1, 4}), u)); got != want {
			t.Errorf("%s: ⟨x_B, u⟩ = %d, want %d", name, got, want)
		}
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestUnsharedZerosStayZero runs random programs of unshared and shared
// input vectors under the vector gates — AddVec, Gather, LinComb, a dot
// of shared columns, openings — on both drivers. Every opening matches
// integer arithmetic, and afterwards every party's zero buffer, whose
// views are the non-owners' slots of every unshared input, still holds
// nothing but zeros: no command wrote a slot after filling it.
func TestUnsharedZerosStayZero(t *testing.T) {
	type vec struct {
		h        Vec
		plain    []int64
		unshared bool
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for name, e := range vecGateEngines(t) {
			g := randx.New(seed)
			randVec := func() []int64 {
				vs := make([]int64, 1+g.IntN(8))
				for k := range vs {
					vs[k] = int64(g.IntN(201) - 100)
				}
				return vs
			}
			var vecs []vec
			like := func(n int) []vec {
				var out []vec
				for _, v := range vecs {
					if len(v.plain) == n {
						out = append(out, v)
					}
				}
				return out
			}
			check := func(v vec) {
				t.Helper()
				got := e.OpenVec(v.h)
				for k, want := range v.plain {
					if got[k] != want {
						t.Fatalf("seed %d %s: element %d opened %d, want %d", seed, name, k, got[k], want)
					}
				}
			}
			for op := 0; op < 60; op++ {
				switch r := g.IntN(6); {
				case r <= 1 || len(vecs) == 0:
					vs := randVec()
					if r == 0 {
						vecs = append(vecs, vec{e.InputUnshared(g.IntN(e.Parties()), vs), vs, true})
					} else {
						vecs = append(vecs, vec{e.InputVec(g.IntN(e.Parties()), vs), vs, false})
					}
				case r == 2:
					a := vecs[g.IntN(len(vecs))]
					cands := like(len(a.plain))
					b := cands[g.IntN(len(cands))]
					sum := make([]int64, len(a.plain))
					for k := range sum {
						sum[k] = a.plain[k] + b.plain[k]
					}
					vecs = append(vecs, vec{e.AddVec(a.h, b.h), sum, a.unshared || b.unshared})
				case r == 3:
					a := vecs[g.IntN(len(vecs))]
					idx := make([]int, 1+g.IntN(6))
					out := make([]int64, len(idx))
					for k := range idx {
						idx[k] = g.IntN(len(a.plain))
						out[k] = a.plain[idx[k]]
					}
					vecs = append(vecs, vec{e.Gather(a.h, idx), out, a.unshared})
				case r == 4:
					a := vecs[g.IntN(len(vecs))]
					cands := like(len(a.plain))
					terms := []vec{a, cands[g.IntN(len(cands))]}
					cs, c0 := []int64{int64(g.IntN(11) - 5), int64(g.IntN(11) - 5)}, int64(g.IntN(21)-10)
					out := make([]int64, len(a.plain))
					for k := range out {
						out[k] = c0 + cs[0]*terms[0].plain[k] + cs[1]*terms[1].plain[k]
					}
					vecs = append(vecs, vec{e.LinComb([]Vec{terms[0].h, terms[1].h}, cs, c0), out, a.unshared || terms[1].unshared})
				case r == 5:
					a := vecs[g.IntN(len(vecs))]
					var shared []vec
					for _, v := range like(len(a.plain)) {
						if !v.unshared {
							shared = append(shared, v)
						}
					}
					if len(shared) == 0 {
						check(a)
						continue
					}
					x, y := shared[g.IntN(len(shared))], shared[g.IntN(len(shared))]
					var want int64
					for k := range x.plain {
						want += x.plain[k] * y.plain[k]
					}
					if got := e.Open(e.Dot(x.h, y.h)); got != want {
						t.Fatalf("seed %d %s: dot opened %d, want %d", seed, name, got, want)
					}
				}
			}
			for _, v := range vecs {
				check(v)
			}
			if err := e.Err(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			e.Stats() // a barrier: the parties' buffers are readable
			for i, pa := range e.parties {
				for k, z := range pa.zeros[:cap(pa.zeros)] {
					if z != 0 {
						t.Fatalf("seed %d %s: party %d's zero buffer holds %d at %d", seed, name, i, z, k)
					}
				}
			}
			e.Close()
		}
	}
}

// TestGatherAndLinCombMetering: LinComb costs every party one field
// operation per term and element — what the MulConst gates it stands for
// cost — whatever the coefficients; Gather costs none; neither moves a
// round, a frame, a message or a byte.
func TestGatherAndLinCombMetering(t *testing.T) {
	for name, e := range vecGateEngines(t) {
		const n = 9
		g := randx.New(3)
		vs := make([]Vec, 4)
		for k := range vs {
			col := make([]int64, n)
			for i := range col {
				col[i] = int64(g.IntN(100))
			}
			vs[k] = e.InputVec(k, col)
		}
		before := e.Stats()
		e.Gather(vs[0], []int{1, 1, 8, 0})
		if after := e.Stats(); after != before {
			t.Errorf("%s: Gather moved the counters %+v → %+v", name, before, after)
		}
		for terms := 0; terms <= len(vs); terms++ {
			before := e.Stats()
			e.LinComb(vs[:terms], []int64{0, -2, 5, 1}[:terms], 7)
			want := before
			want.FieldOps += int64(terms * n * e.Parties())
			if after := e.Stats(); after != want {
				t.Errorf("%s: LinComb of %d terms: counters %+v, want %+v", name, terms, after, want)
			}
		}
		// The scalar gates a two-term LinComb stands for cost the same.
		a, b := e.At(vs[0], 0), e.At(vs[1], 0)
		before = e.Stats()
		e.AddConst(e.Add(e.MulConst(a, 3), e.MulConst(b, -1)), 7)
		scalar := e.Stats().FieldOps - before.FieldOps
		before = e.Stats()
		e.LinComb([]Vec{e.Gather(vs[0], []int{0}), e.Gather(vs[1], []int{0})}, []int64{3, -1}, 7)
		if vec := e.Stats().FieldOps - before.FieldOps; vec != scalar {
			t.Errorf("%s: one-element LinComb metered %d field ops, its scalar gates %d", name, vec, scalar)
		}
	}
}
