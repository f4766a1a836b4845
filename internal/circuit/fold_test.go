package circuit

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
)

// runInline executes plan on a fresh inline 4-party engine.
func runInline(t *testing.T, plan *Plan, bind Bindings) (*Result, bgw.Stats) {
	t.Helper()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(eng, bind)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.Stats()
}

// sameOpened reports whether two executions opened the same outputs.
func sameOpened(a, b *Result) bool {
	if len(a.opened) != len(b.opened) || len(a.openedVecs) != len(b.openedVecs) {
		return false
	}
	for i := range a.openedVecs {
		if !reflect.DeepEqual(a.openedVecs[i], b.openedVecs[i]) {
			return false
		}
	}
	return len(a.opened) == 0 || reflect.DeepEqual(a.opened, b.opened)
}

// mustViolateNaming runs fn and demands an invariant.Violation whose
// message contains reason.
func mustViolateNaming(t *testing.T, what, reason string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if e, ok := r.(*invariant.Error); !ok || !strings.Contains(e.Error(), reason) {
			t.Errorf("%s: recovered %v, want an invariant.Violation saying %q", what, r, reason)
		}
	}()
	fn()
}

// mustNameTheFold demands the violation of a folded handle.
func mustNameTheFold(t *testing.T, what string, fn func()) {
	t.Helper()
	mustViolateNaming(t, what, "folded", fn)
}

// TestFoldedHandlesFailLoudly: a leaf folded into its dealer's sum and a
// partial sum over one have no sharing of their own, so their handles
// must not resolve — to nil or to anything else. The root keeps both its
// handle and its value. (Both roots are also multiplied: a sum that only
// reached its opening would not be shared at all, and refused for that.)
func TestFoldedHandlesFailLoudly(t *testing.T) {
	b := NewBuilder(4, 0)
	a1 := b.Input(0, 3)
	a2 := b.InputParam(0)
	c1 := b.Input(2, 100)
	part := b.Add(a1, c1)
	root := b.Add(part, a2)
	v1 := b.InputVec(1, []int64{1, 2})
	v2 := b.InputVec(1, []int64{10, 20})
	w := b.InputVec(3, []int64{5, 5})
	vpart := b.AddVec(v1, w)
	vroot := b.AddVec(vpart, v2)
	b.OpenIdx(root)
	b.OpenVecIdx(vroot)
	b.OpenIdx(b.Mul(root, b.Dot(vroot, vroot)))
	plan := b.MustCompile()
	if plan.folded != 2 || plan.nUnshared != 0 {
		t.Fatalf("folded %d input leaves and left %d unshared, want 2 and 0", plan.folded, plan.nUnshared)
	}
	res, _ := runInline(t, plan, Bindings{Inputs: []int64{40}})
	if got := res.Opened(0); got != 143 {
		t.Fatalf("opened %d, want 143", got)
	}
	if got := res.OpenedVec(0); !reflect.DeepEqual(got, []int64{16, 27}) {
		t.Fatalf("opened %v, want [16 27]", got)
	}
	mustNameTheFold(t, "ValOf a folded leaf", func() { res.ValOf(a1) })
	mustNameTheFold(t, "ValOf another folded leaf", func() { res.ValOf(a2) })
	mustNameTheFold(t, "ValOf a partial sum over a folded leaf", func() { res.ValOf(part) })
	mustNameTheFold(t, "VecOf a folded leaf", func() { res.VecOf(v1) })
	mustNameTheFold(t, "VecOf another folded leaf", func() { res.VecOf(v2) })
	mustNameTheFold(t, "VecOf a partial sum over a folded leaf", func() { res.VecOf(vpart) })
	if res.ValOf(root) == nil || res.ValOf(c1) == nil || res.VecOf(vroot) == nil || res.VecOf(w) == nil {
		t.Fatal("the root or an unfolded leaf no longer resolves")
	}
}

// TestUnconsumedLeavesNeverFold: inputs shared only to be read back
// through VecOf / ValOf — the LR set-up plan's feature and label columns
// — have no consumer and stay one sharing each, same owner or not.
func TestUnconsumedLeavesNeverFold(t *testing.T) {
	b := NewBuilder(4, 0)
	cols := []bgw.Vec{b.InputVec(1, []int64{4, -2}), b.InputVec(1, []int64{7, 7}), b.InputVec(1, []int64{1, 1})}
	xs := []bgw.Val{b.Input(2, 9), b.Input(2, 11)}
	recorded := append([]node(nil), b.nodes...)
	plan := b.MustCompile()
	if plan.folded != 0 || !reflect.DeepEqual(plan.nodes, recorded) {
		t.Fatalf("a plan of unconsumed leaves was rewritten (%d folded)", plan.folded)
	}
	res, _ := runInline(t, plan, Bindings{})
	for i, c := range cols {
		if res.VecOf(c) == nil {
			t.Errorf("column %d does not resolve", i)
		}
	}
	for i, x := range xs {
		if res.ValOf(x) == nil {
			t.Errorf("scalar %d does not resolve", i)
		}
	}
}

// TestSharedLeavesNeverFold: a leaf with a second consumer — a product, a
// second sum, an output — must keep its own sharing; only its one-consumer
// siblings fold.
func TestSharedLeavesNeverFold(t *testing.T) {
	b := NewBuilder(4, 0)
	shared := b.Input(0, 6)
	twice := b.Input(0, 2)
	s1, s2 := b.Input(0, 10), b.Input(0, 20)
	sum := b.Add(b.Add(b.Add(b.Add(shared, s1), twice), s2), twice)
	b.OpenIdx(sum)
	b.OpenIdx(b.Mul(shared, sum)) // the sum is multiplied, so its leaves are shared
	plan := b.MustCompile()
	if plan.folded != 1 {
		t.Fatalf("folded %d input leaves, want 1 (s2 into s1)", plan.folded)
	}
	res, _ := runInline(t, plan, Bindings{})
	if res.Opened(0) != 40 || res.Opened(1) != 240 {
		t.Fatalf("opened %d and %d, want 40 and 240", res.Opened(0), res.Opened(1))
	}
	if res.ValOf(shared) == nil || res.ValOf(twice) == nil {
		t.Fatal("a leaf with two consumers no longer resolves")
	}
	mustNameTheFold(t, "ValOf a folded sibling", func() { res.ValOf(s2) })
}

// TestVectorGateOperandsNeverFold: Gather and LinComb read their operands
// as any consumer does, so an input vector one of them reads beside an
// AddVec keeps its own sharing — were the gate's read not counted, the
// leaf would fold into its dealer's sum and the gate read a removed node —
// while the same dealer's other leaves of that sum still fold.
func TestVectorGateOperandsNeverFold(t *testing.T) {
	b := NewBuilder(4, 0)
	gathered := b.InputVec(2, []int64{1, 2, 3})
	combined := b.InputVec(2, []int64{7, 8, 9})
	s1, s2 := b.InputVec(2, []int64{10, 20, 30}), b.InputVec(2, []int64{100, 200, 300})
	sum := b.AddVec(b.AddVec(b.AddVec(gathered, s1), combined), s2)
	b.OpenVecIdx(sum)
	b.OpenVecIdx(b.Gather(gathered, []int{2, 2, 0}))
	b.OpenVecIdx(b.LinComb([]bgw.Vec{combined, sum}, []int64{-2, 1}, 5))
	b.OpenIdx(b.Dot(sum, sum)) // multiplied, so the sum's leaves are shared
	plan := b.MustCompile()
	if plan.folded != 1 {
		t.Fatalf("folded %d input leaves, want 1 (s2 into s1)", plan.folded)
	}
	res, _ := runInline(t, plan, Bindings{})
	for k, want := range [][]int64{{118, 230, 342}, {3, 3, 1}, {109, 219, 329}} {
		if got := res.OpenedVec(k); !reflect.DeepEqual(got, want) {
			t.Errorf("output %d opened %v, want %v", k, got, want)
		}
	}
	if res.VecOf(gathered) == nil || res.VecOf(combined) == nil {
		t.Fatal("a leaf a vector gate reads no longer resolves")
	}
	mustNameTheFold(t, "VecOf a folded sibling", func() { res.VecOf(s2) })
	if pres, err := plan.Plain(Bindings{}); err != nil || !sameOpened(pres, res) {
		t.Fatalf("plain interpreter disagrees with the engine (%v)", err)
	}
}

// TestFoldShapes walks the rewrites prune has to get right — a root that
// becomes the sum leaf, a root that takes over an interior gate, Zero as
// the identity, a root with two consumers, a bushy tree, a vector chain
// two dealers share — and holds each to the circuit as recorded.
func TestFoldShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		folded int
		gates  int // nodes the compiled plan executes
		record func(b *Builder)
		bind   Bindings
	}{
		{"root becomes the sum leaf", 2, 2, func(b *Builder) {
			b.OpenIdx(b.Add(b.Add(b.Input(1, 5), b.InputParam(1)), b.InputElem(1, field.FromInt64(-9))))
		}, Bindings{Inputs: []int64{70}}},
		{"root takes over an interior gate", 2, 6, func(b *Builder) {
			x := b.Mul(b.Input(2, 3), b.Input(3, 4))
			gone := b.Add(b.Input(0, 1), b.Input(0, 2))
			b.OpenIdx(b.Add(gone, b.Add(b.Input(0, 4), x)))
		}, Bindings{}},
		{"zero heads the chain", 3, 4, func(b *Builder) {
			acc := b.Zero()
			for j := 0; j < 5; j++ {
				acc = b.Add(acc, b.InputParam(j%2))
			}
			b.OpenIdx(acc)
		}, Bindings{Inputs: []int64{1, 20, 300, 4000, 50000}}},
		{"root feeds two consumers", 1, 5, func(b *Builder) {
			root := b.Add(b.Input(3, 8), b.Input(3, -3))
			b.OpenIdx(b.MulConst(root, 2))
			b.OpenIdx(b.AddConst(root, 1))
		}, Bindings{}},
		{"bushy tree, two dealers", 2, 4, func(b *Builder) {
			l := b.Add(b.Input(0, 1), b.Input(1, 10))
			r := b.Add(b.Input(1, 100), b.Input(0, 1000))
			b.OpenIdx(b.Add(l, r))
		}, Bindings{}},
		{"vectors, two dealers", 3, 4, func(b *Builder) {
			acc := b.InputVec(2, []int64{1, 2, 3})
			acc = b.AddVec(acc, b.InputVec(2, []int64{10, 20, 30}))
			acc = b.AddVec(acc, b.InputVec(0, []int64{7, 7, 7}))
			acc = b.AddVec(acc, b.InputVec(2, []int64{100, 200, 300}))
			acc = b.AddVec(acc, b.InputVec(2, []int64{-1, -1, -1}))
			b.OpenVecIdx(acc)
		}, Bindings{}},
	} {
		ub := NewBuilder(4, 0)
		tc.record(ub)
		want, err := compileUnfolded(t, ub).Plain(tc.bind)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(4, 0)
		tc.record(b)
		plan := b.MustCompile()
		if plan.folded != tc.folded || plan.Gates() != tc.gates {
			t.Errorf("%s: folded %d leaves into a plan of %d nodes, want %d and %d", tc.name, plan.folded, plan.Gates(), tc.folded, tc.gates)
		}
		plain, err := plan.Plain(tc.bind)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runInline(t, plan, tc.bind)
		for _, got := range []*Result{plain, res} {
			if !sameOpened(got, want) {
				t.Errorf("%s: opened %v %v, as recorded %v %v", tc.name, got.opened, got.openedVecs, want.opened, want.openedVecs)
			}
		}
	}
}

// sumOf records one opened sum of k scalar and k vector leaves, leaf i
// dealt by owner i mod o; with spoil every leaf gets a second consumer,
// which keeps the whole circuit unfolded by construction.
func sumOf(b *Builder, k, o int, val func(i int) int64, spoil bool) {
	acc := b.Zero()
	var vacc bgw.Vec
	for i := 0; i < k; i++ {
		x := b.Input(i%o, val(i))
		v := b.InputVec(i%o, []int64{val(i), -val(i)})
		if spoil {
			b.MulConst(x, 0)
			b.At(v, 0)
		}
		acc = b.Add(acc, x)
		if vacc == nil {
			vacc = v
		} else {
			vacc = b.AddVec(vacc, v)
		}
	}
	b.OpenIdx(acc)
	b.OpenVecIdx(vacc)
}

// TestFoldExactCounts: k leaves dealt by o owners into one sum put
// exactly the traffic of a hand-written o-leaf circuit on the wire, and
// when every owner deals one leaf (o = k) the fold pass changes nothing:
// the nodes are the recording but for the open-only flag schedule sets —
// a pure sum into an opening shares no leaf — and the counters are those
// of one masked-sum round.
func TestFoldExactCounts(t *testing.T) {
	const k = 12
	val := func(i int) int64 { return int64(3*i - 7) }
	for o := 1; o <= 4; o++ {
		b := NewBuilder(4, 0)
		sumOf(b, k, o, val, false)
		plan := b.MustCompile()
		if want := 2 * (k - o); plan.folded != want {
			t.Errorf("o=%d: folded %d leaves, want %d", o, plan.folded, want)
		}
		res, got := runInline(t, plan, Bindings{})

		// The hand-written circuit: owner j deals the sum of its leaves.
		hb := NewBuilder(4, 0)
		sums := make([]int64, o)
		for i := 0; i < k; i++ {
			sums[i%o] += val(i)
		}
		sumOf(hb, o, o, func(i int) int64 { return sums[i] }, false)
		hres, want := runInline(t, hb.MustCompile(), Bindings{})
		if got.Messages != want.Messages || got.Bytes != want.Bytes || got.Frames != want.Frames || got.Rounds != want.Rounds {
			t.Errorf("o=%d: %d leaves cost %+v, the %d-leaf circuit %+v", o, k, got, o, want)
		}
		if res.Opened(0) != hres.Opened(0) || !reflect.DeepEqual(res.OpenedVec(0), hres.OpenedVec(0)) {
			t.Errorf("o=%d: folded and hand-written sums differ", o)
		}
	}

	b := NewBuilder(4, 0)
	sumOf(b, 4, 4, val, false)
	recorded := append([]node(nil), b.nodes...)
	plan := b.MustCompile()
	asRecorded := append([]node(nil), plan.nodes...)
	for i := range asRecorded {
		asRecorded[i].openOnly = false
	}
	if plan.folded != 0 || plan.Gates() != len(recorded) || !reflect.DeepEqual(asRecorded, recorded) {
		t.Fatalf("one leaf per owner: Compile rewrote the recording (%d folded, %d of %d nodes)", plan.folded, plan.Gates(), len(recorded))
	}
	if plan.nUnshared != 8 || plan.Rounds() != 1 {
		t.Fatalf("one leaf per owner: %d unshared leaves in %d rounds, want all 8 in the opening round", plan.nUnshared, plan.Rounds())
	}
	_, got := runInline(t, plan, Bindings{})
	// Before the leaves went unshared this circuit measured {2, 48, 72,
	// 576, 108}: the input round with its 24 frames, 36 messages and
	// 12·P·(t+1) = 96 sharing operations is gone. What is left is the
	// opening exchange of one scalar and one 2-vector — 2·P(P−1) frames,
	// 3 elements to every peer, one field operation per element and party
	// — and one λ⁻¹·x per input element at its owner.
	want := bgw.Stats{Rounds: 1, Frames: 24, Messages: 36, Bytes: 288, FieldOps: 24}
	if got != want {
		t.Fatalf("one leaf per owner: counters %+v, want %+v", got, want)
	}
}

// TestFoldWrapConsistency is the numeric-edge property: leaves that each
// fit the signed field range but whose sum leaves it — and whose int64
// sum would overflow outright — open to the same value folded, unfolded
// by construction, and on Plain, because the fold adds in the field.
func TestFoldWrapConsistency(t *testing.T) {
	const half = int64(field.Modulus / 2)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		k := 9 + rng.Intn(8)
		vals := make([]int64, k)
		sign := int64(1 - 2*rng.Intn(2))
		var wide float64
		for i := range vals {
			vals[i] = sign * (half - rng.Int63n(1<<40))
			wide += float64(vals[i])
		}
		if math.Abs(wide) < math.MaxInt64 {
			t.Fatalf("trial %d: the int64 sum of the leaves would not overflow", trial)
		}
		val := func(i int) int64 { return vals[i] }
		o := 1 + rng.Intn(3)

		fb := NewBuilder(4, 0)
		sumOf(fb, k, o, val, false)
		folded := fb.MustCompile()
		ub := NewBuilder(4, 0)
		sumOf(ub, k, o, val, true)
		unfolded := ub.MustCompile()
		if folded.folded != 2*(k-o) || unfolded.folded != 0 {
			t.Fatalf("trial %d: folded %d and %d leaves, want %d and 0", trial, folded.folded, unfolded.folded, 2*(k-o))
		}
		want, err := unfolded.Plain(Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := folded.Plain(Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		fr, _ := runInline(t, folded, Bindings{})
		ur, _ := runInline(t, unfolded, Bindings{})
		for name, got := range map[string]*Result{"folded on Plain": fp, "folded": fr, "unfolded": ur} {
			if !sameOpened(got, want) {
				t.Errorf("trial %d: %s opened %v %v, unfolded Plain %v %v", trial, name, got.opened, got.openedVecs, want.opened, want.openedVecs)
			}
		}
	}
}

// TestExecSpanCarriesFoldedInputs: the circuit.exec span says how many
// input leaves the plan no longer shares, so a timeline explains why the
// input round's byte delta fell.
func TestExecSpanCarriesFoldedInputs(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewLog(&buf, "json", obs.LevelDebug)
	b := NewBuilder(4, 0)
	sumOf(b, 6, 2, func(i int) int64 { return int64(i) }, false)
	plan := b.MustCompile()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 11, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(eng, Bindings{}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"circuit.exec"`) {
			if !strings.Contains(line, `"folded_inputs":8`) {
				t.Fatalf("circuit.exec span lacks folded_inputs=8: %s", line)
			}
			return
		}
	}
	t.Fatal("no circuit.exec span recorded")
}
