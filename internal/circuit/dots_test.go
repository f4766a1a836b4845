package circuit

import (
	"runtime"
	"testing"

	"sqm/internal/bgw"
)

// recordGram records the opening of the Gram vector of cols shared
// columns of length m — every pair a ≤ c once, a covariance's upper
// triangle — and returns the packed vector's handle.
func recordGram(b *Builder, cols, m int) bgw.Vec {
	cs := make([]bgw.Vec, cols)
	for j := range cs {
		vs := make([]int64, m)
		for k := range vs {
			vs[k] = int64((j+3)*(k+1)%97) - 48
		}
		cs[j] = b.InputVec(j%b.p, vs)
	}
	var pairs []bgw.VecPair
	for a := range cs {
		for c := a; c < cols; c++ {
			pairs = append(pairs, bgw.VecPair{A: cs[a], B: cs[c]})
		}
	}
	return b.FromScalars(b.DotBatch(pairs, 0))
}

// runOn executes plan on a fresh engine of P parties and returns what it
// opened and the engine's counters.
func runOn(t *testing.T, P int, plan *Plan) (*Result, bgw.Stats) {
	t.Helper()
	eng, err := bgw.NewEngine(bgw.Config{Parties: P, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := plan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return res, eng.Stats()
}

// TestGramLevelIsOneProduct: Compile computes a FromScalars of one
// level's dots as one kDots node in the packing's slot — its six columns
// listed once each, its 21 dots as index pairs into them, and the dots
// folded — and every execution opens what the circuit as recorded opens,
// at the same rounds, frames, bytes and FieldOps: kept at its degree when
// only the opening reads it, and reshared at P = 3, where a product over
// the packed vector would pass P − 1 otherwise.
func TestGramLevelIsOneProduct(t *testing.T) {
	const cols, dots = 6, 6 * 7 / 2
	for _, tc := range []struct {
		name     string
		P        int
		multiply bool // the packed vector is also multiplied, by a fresh column
		reshare  bool
	}{{"kept", 4, false, false}, {"multiplied within P−1", 4, true, false}, {"reshared", 3, true, true}} {
		record := func(b *Builder) bgw.Vec {
			g := recordGram(b, cols, 5)
			b.OpenVecIdx(g)
			if tc.multiply {
				w := b.InputVec(1, make([]int64, dots))
				b.OpenIdx(b.Dot(g, w))
			}
			return g
		}
		ub := NewBuilder(tc.P, 0)
		record(ub)
		unfolded := compileUnfolded(t, ub)
		want, err := unfolded.Plain(Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		_, wantStats := runOn(t, tc.P, unfolded)

		b := NewBuilder(tc.P, 0)
		g := record(b)
		plan := b.MustCompile()
		n := &plan.nodes[g.(*Vec).id]
		vecs, pairs := plan.dots(n)
		if n.kind != kDots || len(vecs) != cols || len(pairs) != 2*dots || n.reshare != tc.reshare {
			t.Fatalf("%s: the packing compiled to %+v over %d vectors and %d pair indices, want a kDots over %d and %d, reshared %v",
				tc.name, *n, len(vecs), len(pairs), cols, 2*dots, tc.reshare)
		}
		folded := 0
		for i := range plan.nodes {
			if plan.nodes[i].kind == kFolded {
				folded++
			}
		}
		if folded != dots || plan.Gates() != len(plan.nodes)-dots {
			t.Errorf("%s: %d nodes folded, %d of %d left; want the %d dots folded", tc.name, folded, plan.Gates(), len(plan.nodes), dots)
		}
		res, stats := runOn(t, tc.P, plan)
		plain, err := plan.Plain(Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Result{"executed": res, "interpreted": plain} {
			if !sameOpened(got, want) {
				t.Errorf("%s: %s opened %v %v, as recorded %v %v", tc.name, name, got.opened, got.openedVecs, want.opened, want.openedVecs)
			}
		}
		if stats != wantStats {
			t.Errorf("%s: counters %+v, as recorded %+v", tc.name, stats, wantStats)
		}
	}
}

// TestDotPackingsLeftAsRecorded: a packing that reads a dot another gate
// also reads, dots of two levels, or anything but dots is computed as
// recorded — a scalar product per dot and the packing a local gate.
func TestDotPackingsLeftAsRecorded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(b *Builder) bgw.Vec
	}{
		{"a dot read twice", func(b *Builder) bgw.Vec {
			x, y := b.InputVec(0, []int64{1, 2}), b.InputVec(1, []int64{3, 4})
			d := b.Dot(x, y)
			b.OpenIdx(d)
			return b.FromScalars([]bgw.Val{d, b.Dot(x, x)})
		}},
		{"dots of two levels", func(b *Builder) bgw.Vec {
			x, y := b.InputVec(0, []int64{1, 2}), b.InputVec(1, []int64{3, 4})
			return b.FromScalars([]bgw.Val{b.Dot(x, y), b.Dot(b.Hadamard(x, y), y)})
		}},
		{"a dot beside an input", func(b *Builder) bgw.Vec {
			x, y := b.InputVec(0, []int64{1, 2}), b.InputVec(1, []int64{3, 4})
			return b.FromScalars([]bgw.Val{b.Dot(x, y), b.Input(2, 7)})
		}},
		{"the same dot twice", func(b *Builder) bgw.Vec {
			d := b.Dot(b.InputVec(0, []int64{1, 2}), b.InputVec(1, []int64{3, 4}))
			return b.FromScalars([]bgw.Val{d, d})
		}},
	} {
		b := NewBuilder(4, 0)
		v := tc.record(b)
		b.OpenVecIdx(v)
		plan := b.MustCompile()
		if k := plan.nodes[v.(*Vec).id].kind; k != kFromScalars {
			t.Errorf("%s: the packing compiled to kind %d, want it left a FromScalars", tc.name, k)
		}
		for i := range plan.nodes {
			if k := plan.nodes[i].kind; k == kDots || k == kFolded {
				t.Errorf("%s: node %d compiled to kind %d", tc.name, i, k)
			}
		}
	}
}

// levelMeter passes every gate to the engine it wraps and reads the
// process's allocation counters around the plan's one multiplicative
// level: from the end of the input round — a barrier after the last of
// the plan's input vectors, of which there are inputs, before Execute
// builds the level's item — to a barrier after the level's
// MulBatchUnreduced, when every party has filed its row.
type levelMeter struct {
	bgw.Evaluator
	inputs        int
	before, after runtime.MemStats
}

func (m *levelMeter) InputVec(owner int, vs []int64) bgw.Vec {
	v := m.Evaluator.InputVec(owner, vs)
	if m.inputs--; m.inputs == 0 {
		m.Evaluator.Stats()
		runtime.ReadMemStats(&m.before)
	}
	return v
}

func (m *levelMeter) MulBatchUnreduced(items []bgw.MulItem) []bgw.Val {
	out := m.Evaluator.MulBatchUnreduced(items)
	m.Evaluator.Stats()
	runtime.ReadMemStats(&m.after)
	return out
}

// TestGramLevelHasNoPerDotObjects executes the Gram level of 40 and of 80
// columns — 820 and 3 240 dots — on a ChanMesh engine of four parties.
// The level is one MulDots item: the caller builds no item, handle or
// descriptor per dot, and no party files a scalar slot per dot or copies
// them into a vector. So the level allocates as many objects at either
// size, and its bytes above the row each party keeps, 8 bytes a dot, are
// at most 16 a dot (per dot the level used to cost an item of 120 bytes
// and a copy per party beside its row).
func TestGramLevelHasNoPerDotObjects(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates beside the program")
	}
	const P = 4
	level := func(cols int) (allocs, bytes uint64) {
		for run := 0; run < 3; run++ {
			b := NewBuilder(P, 0)
			b.OpenVecIdx(recordGram(b, cols, 16))
			plan := b.MustCompile()
			eng, err := bgw.NewEngine(bgw.Config{Parties: P, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			m := &levelMeter{Evaluator: eng, inputs: cols}
			if _, err := plan.Execute(m, Bindings{}); err != nil {
				t.Fatal(err)
			}
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
			eng.Close()
			a, by := m.after.Mallocs-m.before.Mallocs, m.after.TotalAlloc-m.before.TotalAlloc
			if run == 0 || a < allocs {
				allocs = a
			}
			if run == 0 || by < bytes {
				bytes = by
			}
		}
		return allocs, bytes
	}
	type size struct {
		cols, dots     int
		allocs, excess uint64
	}
	var sizes []size
	for _, cols := range []int{40, 80} {
		dots := cols * (cols + 1) / 2
		allocs, bytes := level(cols)
		kept := uint64(P * dots * 8)
		if bytes < kept {
			t.Fatalf("%d columns: the level allocated %d B, less than the %d B of the rows the parties keep", cols, bytes, kept)
		}
		s := size{cols, dots, allocs, bytes - kept}
		t.Logf("%d columns, %d dots: %d allocations, %d B over the kept rows' %d B (%.1f B a dot)",
			cols, dots, allocs, s.excess, kept, float64(s.excess)/float64(dots))
		if s.excess > uint64(16*dots) {
			t.Errorf("%d columns: %d B over the kept rows, more than 16 B for each of %d dots", cols, s.excess, dots)
		}
		sizes = append(sizes, s)
	}
	if sizes[0].allocs != sizes[1].allocs {
		t.Errorf("the level allocates %d objects at %d columns and %d at %d: something is allocated per dot or per column",
			sizes[0].allocs, sizes[0].cols, sizes[1].allocs, sizes[1].cols)
	}
}
