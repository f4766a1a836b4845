package bgw

import (
	"testing"

	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// vecGateEngines is the party goroutines behind a channel mesh and
// behind a TCP mesh, five parties each.
func vecGateEngines(t *testing.T) map[string]*Engine {
	cfg := Config{Parties: 5, Seed: 11}
	return map[string]*Engine{"chan": newActorChan(t, cfg), "tcp": newActorTCP(t, cfg)}
}

// TestGatherAndLinCombMatchPlaintext opens GatherBatch and LinComb
// against integer arithmetic on the edge cases: repeated and no indices,
// negative and zero coefficients, a constant on its own, no coefficients
// (the plain sum, which meters no FieldOps), one vector listed twice, and
// no terms at all.
func TestGatherAndLinCombMatchPlaintext(t *testing.T) {
	x := []int64{7, -3, 0, 1 << 40, -9}
	y := []int64{-1, 2, -4, 8, -16}
	for name, e := range vecGateEngines(t) {
		xv, yv := e.InputVec(0, x), e.InputVec(3, y)

		idx := []int{4, 4, 0, 2, 4, 1}
		got := e.OpenVec(e.GatherBatch([]Vec{xv}, idx)[0])
		for k, i := range idx {
			if got[k] != x[i] {
				t.Errorf("%s: GatherBatch element %d = %d, want x[%d] = %d", name, k, got[k], i, x[i])
			}
		}
		if v := e.GatherBatch([]Vec{xv}, nil)[0]; v.Len() != 0 {
			t.Errorf("%s: GatherBatch of no indices has %d elements", name, v.Len())
		}

		for _, c := range []struct {
			cs []int64
			c0 int64
		}{
			{[]int64{3, -5}, 0},
			{[]int64{-1, 0}, 11},
			{[]int64{0, 0}, -6},
			{[]int64{1 << 20, -(1 << 20)}, 1},
			{nil, 4},
		} {
			before := e.Stats().FieldOps
			sum := e.LinComb([]Vec{xv, yv}, c.cs, c.c0)
			if ops := e.Stats().FieldOps - before; c.cs == nil && ops != 0 {
				t.Errorf("%s: the plain sum metered %d FieldOps, want none", name, ops)
			}
			cx, cy := int64(1), int64(1)
			if c.cs != nil {
				cx, cy = c.cs[0], c.cs[1]
			}
			got := e.OpenVec(sum)
			for k := range x {
				if want := c.c0 + cx*x[k] + cy*y[k]; got[k] != want {
					t.Errorf("%s: LinComb%v+%d element %d = %d, want %d", name, c.cs, c.c0, k, got[k], want)
				}
			}
		}
		got = e.OpenVec(e.LinComb([]Vec{xv, xv, e.GatherBatch([]Vec{yv}, []int{0, 0, 0, 0, 0})[0]}, []int64{2, -3, 1}, 0))
		for k := range x {
			if want := -x[k] + y[0]; got[k] != want {
				t.Errorf("%s: a vector listed twice: element %d = %d, want %d", name, k, got[k], want)
			}
		}
		if v := e.LinComb(nil, nil, 5); v.Len() != 0 {
			t.Errorf("%s: LinComb of no terms has %d elements, want the empty vector", name, v.Len())
		}
		// A dot with a gathered, combined column: the LR step's shape.
		rows := e.GatherBatch([]Vec{xv, yv}, []int{0, 1, 4})
		u := e.LinComb(rows, []int64{2, -1}, 3)
		want := int64(0)
		for _, i := range []int{0, 1, 4} {
			want += x[i] * (3 + 2*x[i] - y[i])
		}
		if got := e.Open(e.Dot(rows[0], u)); got != want {
			t.Errorf("%s: ⟨x_B, u⟩ = %d, want %d", name, got, want)
		}
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestGatherBatchLivesOneBatch: the vectors of a GatherBatch open to
// the rows of their columns, and so does what a gate derives from them
// before the next GatherBatch writes its rows over theirs — a smaller
// batch, then a larger one that regrows the parties' array. Handed to any
// gate afterwards, an earlier batch's vector panics with an
// invariant.Violation, while the columns it was gathered from stay usable
// for GatherBatch and every other gate.
func TestGatherBatchLivesOneBatch(t *testing.T) {
	x := []int64{7, -3, 0, 1 << 40, -9}
	y := []int64{-1, 2, -4, 8, -16}
	for name, e := range vecGateEngines(t) {
		xv, yv := e.InputVec(0, x), e.InputVec(3, y)
		check := func(what string, got []int64, want func(k int) int64) {
			t.Helper()
			for k := range got {
				if got[k] != want(k) {
					t.Errorf("%s: %s element %d = %d, want %d", name, what, k, got[k], want(k))
				}
			}
		}
		first := []int{4, 0, 2, 4}
		b1 := e.GatherBatch([]Vec{xv, yv}, first)
		check("first batch's x", e.OpenVec(b1[0]), func(k int) int64 { return x[first[k]] })
		u := e.LinComb(b1, []int64{2, -1}, 3)
		dot := e.Dot(b1[0], u)
		var wantDot int64
		for _, i := range first {
			wantDot += x[i] * (3 + 2*x[i] - y[i])
		}
		for _, idx := range [][]int{{1, 3, 1}, {0, 1, 2, 3, 4, 0, 1, 2, 3, 4}} {
			b := e.GatherBatch([]Vec{yv, xv}, idx)
			check("derived LinComb", e.OpenVec(u), func(k int) int64 { return 3 + 2*x[first[k]] - y[first[k]] })
			check("next batch's y", e.OpenVec(b[0]), func(k int) int64 { return y[idx[k]] })
			check("next batch's x", e.OpenVec(b[1]), func(k int) int64 { return x[idx[k]] })
		}
		if got := e.Open(dot); got != wantDot {
			t.Errorf("%s: a dot derived from the first batch opened %d, want %d", name, got, wantDot)
		}
		for what, op := range map[string]func(){
			"OpenVec":     func() { e.OpenVec(b1[0]) },
			"AddVec":      func() { e.AddVec(xv, b1[1]) },
			"Dot":         func() { e.Dot(b1[0], b1[0]) },
			"LinComb":     func() { e.LinComb(b1, []int64{1, 1}, 0) },
			"At":          func() { e.At(b1[1], 0) },
			"GatherBatch": func() { e.GatherBatch([]Vec{xv, b1[0]}, []int{0}) },
		} {
			func() {
				defer func() {
					if _, ok := recover().(*invariant.Error); !ok {
						t.Errorf("%s: %s of an earlier batch's vector did not panic with an invariant violation", name, what)
					}
				}()
				op()
			}()
		}
		check("resident x", e.OpenVec(xv), func(k int) int64 { return x[k] })
		check("GatherBatch of resident y", e.OpenVec(e.GatherBatch([]Vec{yv}, []int{4, 4})[0]), func(k int) int64 { return y[4] })
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestUnsharedZerosStayZero runs random programs of unshared and shared
// input vectors under the vector gates — AddVec, GatherBatch, LinComb, a dot
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
					// The plain sum of one keeps the rows past the next batch.
					rows := e.GatherBatch([]Vec{a.h}, idx)
					vecs = append(vecs, vec{e.LinComb(rows, nil, 0), out, a.unshared})
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
// cost — whatever the coefficients; GatherBatch costs none; neither moves
// a round, a frame, a message or a byte.
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
		e.GatherBatch(vs[:2], []int{1, 1, 8, 0})
		if after := e.Stats(); after != before {
			t.Errorf("%s: GatherBatch moved the counters %+v → %+v", name, before, after)
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
		e.LinComb(e.GatherBatch(vs[:2], []int{0}), []int64{3, -1}, 7)
		if vec := e.Stats().FieldOps - before.FieldOps; vec != scalar {
			t.Errorf("%s: one-element LinComb metered %d field ops, its scalar gates %d", name, vec, scalar)
		}
	}
}

// TestHadamardMetersAsItsScalarProducts holds a MulHadamard item to the
// n MulScalar items over its elements that it replaces: on both drivers,
// at P = 4, t = 1 and P = 5, t = 2, a level mixing Hadamards with the
// other kinds opens the same integers and costs the same Stats — rounds,
// frames, messages, bytes and FieldOps — reshared (MulBatch) and kept
// (MulBatchUnreduced), and a kept Hadamard carries degree 2t into a later
// product as a kept scalar product does.
func TestHadamardMetersAsItsScalarProducts(t *testing.T) {
	x := []int64{7, -3, 0, 1 << 20, -9, 4}
	y := []int64{-1, 2, -4, 8, -16, 5}
	for _, sh := range []struct{ P, t int }{{4, 1}, {5, 2}} {
		cfg := Config{Parties: sh.P, Threshold: sh.t, Seed: 23}
		// program issues the level with Hadamards (vector) or with the
		// scalar products over At in their place, and opens everything.
		program := func(e *Engine, vector bool) []int64 {
			xv, yv := e.InputVec(0, x), e.InputVec(sh.P-1, y)
			s := e.Input(1, 6)
			hadamard := func(a, b Vec) []MulItem {
				if vector {
					return []MulItem{{Kind: MulHadamard, VA: a, VB: b}}
				}
				items := make([]MulItem, a.Len())
				for k := range items {
					items[k] = MulItem{Kind: MulScalar, A: e.At(a, k), B: e.At(b, k)}
				}
				return items
			}
			// result takes the Hadamard at outs[at] back as a vector and
			// returns where the next item's result is.
			result := func(outs []Val, at int) (Vec, int) {
				if vector {
					return outs[at].(Vec), at + 1
				}
				return e.FromScalars(outs[at : at+len(x)]), at + len(x)
			}
			items := []MulItem{{Kind: MulScalar, A: s, B: s}, {Kind: MulDot, VA: xv, VB: yv}}
			items = append(items, hadamard(xv, yv)...)
			items = append(items, hadamard(yv, yv)...)
			outs := e.MulBatch(items)
			xy, at := result(outs, 2)
			yy, _ := result(outs, at)
			opened := e.OpenBatch(outs[:2])
			opened = append(opened, e.OpenVec(xy)...)
			opened = append(opened, e.OpenVec(yy)...)

			// Kept at degree 2t, then — where 3t fits in P−1 — multiplied
			// once more by a degree-t column.
			kept, _ := result(e.MulBatchUnreduced(hadamard(xv, yv)), 0)
			if sh.P-1 >= 3*sh.t {
				opened = append(opened, e.OpenBatch(e.MulBatchUnreduced([]MulItem{{Kind: MulDot, VA: kept, VB: xv}}))...)
			}
			opened = append(opened, e.OpenVec(e.AddVec(kept, yv))...)
			return opened
		}
		var want []int64
		want = append(want, 36, 0)
		for k := range x {
			want[1] += x[k] * y[k]
		}
		for k := range x {
			want = append(want, x[k]*y[k])
		}
		for k := range y {
			want = append(want, y[k]*y[k])
		}
		if sh.P-1 >= 3*sh.t {
			var cube int64
			for k := range x {
				cube += x[k] * y[k] * x[k]
			}
			want = append(want, cube)
		}
		for k := range x {
			want = append(want, x[k]*y[k]+y[k])
		}
		for _, driver := range []string{"chan", "tcp"} {
			newEng := func() *Engine {
				if driver == "tcp" {
					return newActorTCP(t, cfg)
				}
				return newActorChan(t, cfg)
			}
			vec, ref := newEng(), newEng()
			got, scalar := program(vec, true), program(ref, false)
			for name, e := range map[string]*Engine{"hadamard": vec, "scalar": ref} {
				if err := e.Err(); err != nil {
					t.Fatalf("P=%d %s %s: %v", sh.P, driver, name, err)
				}
			}
			if !equalInt64(got, want) || !equalInt64(scalar, want) {
				t.Errorf("P=%d %s: Hadamard opened %v, scalar products %v, want %v", sh.P, driver, got, scalar, want)
			}
			if vs, ss := vec.Stats(), ref.Stats(); vs != ss {
				t.Errorf("P=%d %s: Hadamard stats %+v, scalar products %+v", sh.P, driver, vs, ss)
			}
		}
	}
}

// TestEmptyHadamardTakesItsSlot: a Hadamard of two empty vectors — an LR
// step over an empty batch — adds nothing to the level's row but still
// fills a vector slot on every party, so the handles issued after it
// name the slots the parties fill.
func TestEmptyHadamardTakesItsSlot(t *testing.T) {
	for name, e := range vecGateEngines(t) {
		xv := e.InputVec(0, []int64{3, -1})
		empty := e.GatherBatch([]Vec{xv}, nil)[0]
		outs := e.MulBatch([]MulItem{{Kind: MulHadamard, VA: empty, VB: empty}, {Kind: MulDot, VA: xv, VB: xv}})
		if h := outs[0].(Vec); h.Len() != 0 {
			t.Errorf("%s: Hadamard of empty vectors has %d elements", name, h.Len())
		}
		if got := e.OpenVec(e.LinComb([]Vec{xv, xv}, []int64{2, 1}, 0)); !equalInt64(got, []int64{9, -3}) {
			t.Errorf("%s: a vector after the empty Hadamard opened %v, want [9 -3]", name, got)
		}
		if got := e.Open(outs[1]); got != 10 {
			t.Errorf("%s: the dot beside it opened %d, want 10", name, got)
		}
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestMulDotsIsItsDots issues one MulDots item — a Gram shape, all pairs
// of 7 columns of odd length 33 (Winograd's pairing), and an LR shape, 6
// dots of 6 columns against one more (DotAcc) — reduced and unreduced, on
// both meshes, and the same dots as MulDot items on engines of the same
// seed. Every opened element is the plain inner product, both engines
// meter the same rounds, frames, messages, bytes and FieldOps, and only
// the Gram item has the parties take pair products. An odd index list, a
// pair index outside Vecs and a pair of two lengths panic with an
// invariant violation.
func TestMulDotsIsItsDots(t *testing.T) {
	const cols, length = 7, 33
	raw := make([][]int64, cols)
	for i := range raw {
		raw[i] = make([]int64, length)
		for k := range raw[i] {
			raw[i][k] = int64((i+3)*(k+7)%101) - 50
		}
	}
	dot := func(a, b int) int64 {
		var s int64
		for k := range raw[a] {
			s += raw[a][k] * raw[b][k]
		}
		return s
	}
	var gram, lr []int32
	for a := int32(0); a < cols; a++ {
		for b := a; b < cols; b++ {
			gram = append(gram, a, b)
		}
		if a < cols-1 {
			lr = append(lr, a, cols-1)
		}
	}
	dotted, items := vecGateEngines(t), vecGateEngines(t)
	for name, e := range dotted {
		f := items[name]
		vs, ws := make([]Vec, cols), make([]Vec, cols)
		for i := range vs {
			vs[i], ws[i] = e.InputVec(i%e.Parties(), raw[i]), f.InputVec(i%f.Parties(), raw[i])
		}
		for _, shape := range []struct {
			name     string
			pairs    []int32
			winograd bool
		}{{"lr", lr, false}, {"gram", gram, true}} {
			for _, unreduced := range []bool{false, true} {
				batchE, batchF := e.MulBatch, f.MulBatch
				if unreduced {
					batchE, batchF = e.MulBatchUnreduced, f.MulBatchUnreduced
				}
				got := e.OpenVec(batchE([]MulItem{{Kind: MulDots, Vecs: vs, Pairs: shape.pairs}})[0].(Vec))
				var its []MulItem
				for i := 0; i < len(shape.pairs); i += 2 {
					its = append(its, MulItem{Kind: MulDot, VA: ws[shape.pairs[i]], VB: ws[shape.pairs[i+1]]})
				}
				f.OpenBatch(batchF(its))
				for i := range got {
					if want := dot(int(shape.pairs[2*i]), int(shape.pairs[2*i+1])); got[i] != want {
						t.Fatalf("%s/%s unreduced=%v: dot %d = %d, want %d", shape.name, name, unreduced, i, got[i], want)
					}
				}
				if se, sf := e.Stats(), f.Stats(); se != sf {
					t.Errorf("%s/%s unreduced=%v: one MulDots item metered %+v, its dots as MulDot items %+v", shape.name, name, unreduced, se, sf)
				}
				for i, pa := range e.parties {
					if paired := pa.gram != nil; paired != shape.winograd {
						t.Fatalf("%s/%s: party %d computed pair products: %v, want %v", shape.name, name, i, paired, shape.winograd)
					}
				}
			}
		}
		for what, it := range map[string]MulItem{
			"odd index list":  {Kind: MulDots, Vecs: vs, Pairs: []int32{0, 1, 2}},
			"index outside":   {Kind: MulDots, Vecs: vs[:2], Pairs: []int32{0, 2}},
			"negative index":  {Kind: MulDots, Vecs: vs, Pairs: []int32{-1, 0}},
			"two lengths":     {Kind: MulDots, Vecs: []Vec{vs[0], e.InputVec(0, []int64{1})}, Pairs: []int32{0, 1}},
			"foreign handles": {Kind: MulDots, Vecs: []Vec{ws[0]}, Pairs: []int32{0, 0}},
		} {
			func() {
				defer func() {
					if _, ok := recover().(*invariant.Error); !ok {
						t.Errorf("%s: a MulDots item with %s did not panic with an invariant violation", name, what)
					}
				}()
				e.MulBatch([]MulItem{it})
			}()
		}
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
