package circuit

import (
	"reflect"
	"runtime"
	"testing"

	"sqm/internal/bgw"
)

// TestSumTreeIsOneGate: Compile computes a vector sum tree as one plain
// LinComb in the root's slot. The interior gate's handle is folded and
// refuses VecOf; the root and the leaves resolve, and every execution
// opens what the circuit as recorded opens, at the same counters.
func TestSumTreeIsOneGate(t *testing.T) {
	record := func(b *Builder) (leaves []bgw.Vec, part, root bgw.Vec) {
		for owner, vs := range [][]int64{{1, -2}, {30, 40}, {-500, 600}} {
			leaves = append(leaves, b.InputVec(owner, vs))
		}
		part = b.AddVec(leaves[0], leaves[1])
		root = b.AddVec(part, leaves[2])
		b.OpenVecIdx(root)
		b.OpenIdx(b.Dot(root, root)) // multiplied, so the leaves are shared and readable
		return leaves, part, root
	}
	ub := NewBuilder(4, 0)
	record(ub)
	unfolded := compileUnfolded(t, ub)
	want, err := unfolded.Plain(Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	_, wantStats := runPlan(t, unfolded, Bindings{})

	b := NewBuilder(4, 0)
	leaves, part, root := record(b)
	plan := b.MustCompile()
	if n := &plan.nodes[root.(*Vec).id]; n.kind != kLinComb || n.param >= 0 || !reflect.DeepEqual(plan.operands(n.a, n.b), []int32{0, 1, 2}) {
		t.Fatalf("root compiled to %+v, want a plain LinComb over the three leaves", *n)
	}
	if plan.folded != 0 || plan.Gates() != len(plan.nodes)-1 {
		t.Fatalf("%d input leaves folded, %d of %d nodes left; want 0 and all but the interior gate", plan.folded, plan.Gates(), len(plan.nodes))
	}
	res, stats := runPlan(t, plan, Bindings{})
	plain, err := plan.Plain(Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Result{"executed": res, "interpreted": plain} {
		if !sameOpened(got, want) {
			t.Errorf("%s: opened %v %v, as recorded %v %v", name, got.opened, got.openedVecs, want.opened, want.openedVecs)
		}
	}
	if stats != wantStats {
		t.Errorf("counters %+v, as recorded %+v", stats, wantStats)
	}
	mustNameTheFold(t, "VecOf the sum tree's interior gate", func() { res.VecOf(part) })
	if res.VecOf(root) == nil {
		t.Fatal("the root no longer resolves")
	}
	for i, l := range leaves {
		if res.VecOf(l) == nil {
			t.Errorf("leaf %d no longer resolves", i)
		}
	}
}

// TestSumTreesLeftAsRecorded: a tree of one gate has nothing to fold, and
// an interior gate with a second consumer roots a tree of its own, so
// neither circuit is rewritten.
func TestSumTreesLeftAsRecorded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(b *Builder)
	}{
		{"one gate", func(b *Builder) {
			b.OpenVecIdx(b.AddVec(b.InputVec(0, []int64{1, 2}), b.InputVec(1, []int64{3, 4})))
		}},
		{"interior gate read twice", func(b *Builder) {
			part := b.AddVec(b.InputVec(0, []int64{1, 2}), b.InputVec(1, []int64{3, 4}))
			b.OpenVecIdx(b.AddVec(part, b.InputVec(2, []int64{5, 6})))
			b.OpenVecIdx(part)
		}},
	} {
		b := NewBuilder(4, 0)
		tc.record(b)
		recorded := append([]node(nil), b.nodes...)
		plan := b.MustCompile()
		if !reflect.DeepEqual(unscheduled(plan.nodes), recorded) {
			t.Errorf("%s: Compile rewrote the recording", tc.name)
		}
	}
}

// gramPlusNoise records the opening of the full Gram vector of cols
// shared columns of two elements — cols² dots, each pair both ways — plus
// k unshared vector parameters of that length dealt round the parties:
// a covariance release's shape with k noise holders.
func gramPlusNoise(cols, k int) *Plan {
	b := NewBuilder(4, 0)
	cs := make([]bgw.Vec, cols)
	for j := range cs {
		cs[j] = b.InputVec(j%4, []int64{int64(j), int64(1 - j)})
	}
	pairs := make([]bgw.VecPair, 0, cols*cols)
	for _, a := range cs {
		for _, c := range cs {
			pairs = append(pairs, bgw.VecPair{A: a, B: c})
		}
	}
	sum := b.FromScalars(b.DotBatch(pairs, 0))
	for h := range k {
		sum = b.AddVec(sum, b.InputVecParam(h%4, cols*cols))
	}
	b.OpenVecIdx(sum)
	return b.MustCompile()
}

// TestVectorSumTakesOneSlot: a party fills one output slot for a sum
// tree whatever its number of leaves. Executing the opening of a Gram
// vector plus k noise vectors (gramPlusNoise) allocates, per party and
// over the k vectors the engine embeds, the same bytes at k = 10 as at
// k = 2 within one arena chunk; with an AddVec gate per leaf each party
// would fill eight more slots of the whole vector.
func TestVectorSumTakesOneSlot(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates beside the program")
	}
	const (
		cols  = 64
		n     = cols * cols // 32 KB of field elements: a size class of its own
		chunk = 32 << 10    // the largest arena chunk
	)
	perParty := func(k int) int64 {
		plan := gramPlusNoise(cols, k)
		noise := make([][]int64, k)
		for h := range noise {
			noise[h] = make([]int64, n)
			for i := range noise[h] {
				noise[h][i] = int64(h - i)
			}
		}
		bind := Bindings{InputVecs: func() [][]int64 { return noise }}
		eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var fewest uint64
		for run := 0; run < 4; run++ { // the first warms the parties' arrays
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := plan.Execute(eng, bind); err != nil {
				t.Fatal(err)
			}
			eng.Stats() // the barrier: every party has run every command
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; run == 1 || run > 1 && got < fewest {
				fewest = got
			}
		}
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		// The engine embeds each noise vector in the field: k·n·8 bytes
		// that are the inputs' own, not any party's.
		return (int64(fewest) - int64(k*n*8)) / 4
	}
	two, ten := perParty(2), perParty(10)
	t.Logf("per party, over the noise vectors' own bytes: %d B at k = 2, %d B at k = 10 (one slot is %d B)", two, ten, n*8)
	if d := ten - two; d > chunk || d < -chunk {
		t.Errorf("a party allocates %d B at k = 10 and %d B at k = 2: the sum costs more than one slot", ten, two)
	}
}

// raceBuild is set under the race detector (race_test.go).
var raceBuild bool
