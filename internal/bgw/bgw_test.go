package bgw

import (
	"errors"
	"testing"
	"testing/quick"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/shamir"
)

func newTestEngine(t *testing.T, parties int) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Parties: parties, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{Parties: 2}); err == nil {
		t.Fatal("2 parties must be rejected (no t >= 1 fits)")
	}
	if _, err := NewEngine(Config{Parties: 4, Threshold: 2}); err == nil {
		t.Fatal("P < 2t+1 must be rejected")
	}
	e, err := NewEngine(Config{Parties: 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Threshold() != 2 {
		t.Fatalf("default threshold = %d, want 2", e.Threshold())
	}
}

func TestInputOpenRoundTrip(t *testing.T) {
	e := newTestEngine(t, 4)
	for _, v := range []int64{0, 1, -1, 123456789, -987654321} {
		s := e.Input(v30(v), v)
		if got := e.Open(s); got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

// v30 maps a value to a valid owner id deterministically.
func v30(v int64) int {
	if v < 0 {
		v = -v
	}
	return int(v % 3)
}

func TestAddSubConst(t *testing.T) {
	e := newTestEngine(t, 4)
	a := e.Input(0, 100)
	b := e.Input(1, -30)
	if got := e.Open(e.Add(a, b)); got != 70 {
		t.Fatalf("Add = %d", got)
	}
	if got := e.Open(e.Sub(a, b)); got != 130 {
		t.Fatalf("Sub = %d", got)
	}
	if got := e.Open(e.AddConst(a, 5)); got != 105 {
		t.Fatalf("AddConst = %d", got)
	}
	if got := e.Open(e.MulConst(b, -2)); got != 60 {
		t.Fatalf("MulConst = %d", got)
	}
	if got := e.Open(e.Zero()); got != 0 {
		t.Fatalf("Zero = %d", got)
	}
}

func TestMulMatchesPlaintext(t *testing.T) {
	e := newTestEngine(t, 4)
	cases := [][2]int64{{3, 7}, {-5, 11}, {0, 999}, {-8, -9}, {1 << 20, 1 << 20}}
	for _, c := range cases {
		a := e.Input(0, c[0])
		b := e.Input(1, c[1])
		if got := e.Open(e.Mul(a, b)); got != c[0]*c[1] {
			t.Fatalf("Mul(%d, %d) = %d", c[0], c[1], got)
		}
	}
}

func TestMulProperty(t *testing.T) {
	e := newTestEngine(t, 5)
	f := func(a, b int32) bool {
		// Keep the product within the field's signed embedding range.
		x, y := int64(a%(1<<29)), int64(b%(1<<29))
		s := e.Mul(e.Input(0, x), e.Input(1, y))
		return e.Open(s) == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeepMultiplicationChain(t *testing.T) {
	// Repeated degree reduction: x^8 through 3 squarings.
	e := newTestEngine(t, 3)
	x := e.Input(0, 5)
	s := x
	for i := 0; i < 3; i++ {
		s = e.Mul(s, s)
		e.AdvanceRound()
	}
	if got := e.Open(s); got != 390625 {
		t.Fatalf("5^8 = %d", got)
	}
}

func TestInnerProduct(t *testing.T) {
	e := newTestEngine(t, 4)
	as := []Val{e.Input(0, 1), e.Input(0, 2), e.Input(1, 3)}
	bs := []Val{e.Input(2, 4), e.Input(2, 5), e.Input(3, 6)}
	if got := e.Open(e.InnerProduct(as, bs)); got != 32 {
		t.Fatalf("InnerProduct = %d", got)
	}
}

func TestInnerProductSingleResharing(t *testing.T) {
	e := newTestEngine(t, 4)
	var as, bs []Val
	for i := 0; i < 10; i++ {
		as = append(as, e.Input(0, int64(i)))
		bs = append(bs, e.Input(1, int64(i)))
	}
	e.ResetStats()
	e.InnerProduct(as, bs)
	msgs := e.Stats().Messages
	if want := int64(4 * 3); msgs != want {
		t.Fatalf("fused inner product used %d messages, want one resharing = %d", msgs, want)
	}
}

// TestStatsMetering drives Input, Mul and Open gate by gate: a bare Input
// always shares and a bare Mul always reduces — 3 rounds, whatever a plan
// would make of the leaves and the level.
func TestStatsMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	e.ResetStats()
	a := e.Input(0, 2) // 3 messages
	b := e.Input(1, 3) // 3 messages
	e.AdvanceRound()   // input round
	c := e.Mul(a, b)   // 12 messages
	e.AdvanceRound()   // multiplication round
	e.Open(c)          // 12 messages
	e.AdvanceRound()   // output round
	st := e.Stats()
	if st.Messages != 3+3+12+12 {
		t.Fatalf("Messages = %d", st.Messages)
	}
	if st.Rounds != 3 {
		t.Fatalf("Rounds = %d", st.Rounds)
	}
	if st.NetTime(DefaultLatency) != 3*DefaultLatency {
		t.Fatalf("NetTime = %v", st.NetTime(DefaultLatency))
	}
	if st.FieldOps == 0 {
		t.Fatal("FieldOps not metered")
	}
}

// TestUnreducedLevelMetering: MulBatchUnreduced moves nothing and draws
// nothing — no frame, no message, the sharing streams where they were —
// meters the products alone, and the opening that follows charges each
// party one multiplication per element and reveals the products.
func TestUnreducedLevelMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	a, b := e.Input(0, 6), e.Input(1, -7)
	v := e.InputVec(2, []int64{1, 2, 3})
	e.ResetStats()
	outs := e.MulBatchUnreduced([]MulItem{
		{Kind: MulScalar, A: a, B: b},
		{Kind: MulInner, As: []Val{a, b}, Bs: []Val{a, b}},
		{Kind: MulDot, VA: v, VB: v},
	})
	if st := e.Stats(); st != (Stats{FieldOps: 4 * (1 + 2 + 3)}) {
		t.Fatalf("unreduced level metered %+v, want only 4·6 field operations", st)
	}
	got := e.OpenBatch(outs)
	if want := []int64{-42, 36 + 49, 14}; !equalInt64(got, want) {
		t.Fatalf("opened %v, want %v", got, want)
	}
	if st := e.Stats(); st != (Stats{Frames: 12, Messages: 36, Bytes: 288, FieldOps: 4*6 + 4*3}) {
		t.Fatalf("after the opening %+v", st)
	}
	// A reduced product of the same inputs draws from the sharing streams
	// at the position two Input calls and an InputVec left them at.
	ref := newTestEngine(t, 4)
	ra, rb := ref.Input(0, 6), ref.Input(1, -7)
	ref.InputVec(2, []int64{1, 2, 3})
	c, rc := e.Mul(a, b), ref.Mul(ra, rb)
	for i := range e.parties {
		if e.parties[i].sc[e.shared(c).ref] != ref.parties[i].sc[ref.shared(rc).ref] {
			t.Fatalf("party %d: the unreduced level moved a sharing stream", i)
		}
	}
}

// TestUnsharedInputMetering: InputUnshared moves nothing and draws
// nothing — no frame, no message, no round, the sharing streams where
// they were — and meters one multiplication per element, at the owner.
// The owner's slot holds x/λ_owner and every other slot 0; the opening
// that follows reveals x, alone and through linear gates over a shared
// vector.
func TestUnsharedInputMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	v := e.InputVec(2, []int64{1, 2, 3})
	e.ResetStats()
	xs := []int64{-5, 0, 1 << 40}
	u := e.InputUnshared(1, xs)
	if st := e.Stats(); st != (Stats{FieldOps: 3}) {
		t.Fatalf("unshared input metered %+v, want only 3 field operations", st)
	}
	ref := e.sharedVec(u).ref
	for i, pa := range e.parties {
		for k, x := range xs {
			want := field.Elem(0)
			if i == 1 {
				want = field.Mul(field.FromInt64(x), field.Inv(pa.weights[1]))
			}
			if pa.vc[ref][k] != want {
				t.Fatalf("party %d element %d holds %d, want %d", i, k, pa.vc[ref][k], want)
			}
		}
	}
	if got := e.OpenVec(u); !equalInt64(got, xs) {
		t.Fatalf("opened %v, want %v", got, xs)
	}
	mixed := e.LinComb([]Vec{v, e.AddVec(u, v)}, []int64{2, -3}, 7)
	if got, want := e.OpenVec(mixed), []int64{7 + 2 - 3*(-5+1), 7 + 4 - 3*2, 7 + 6 - 3*(1<<40+3)}; !equalInt64(got, want) {
		t.Fatalf("opened %v through linear gates, want %v", got, want)
	}
	if got := e.Open(e.AddConst(e.At(u, 0), 9)); got != 4 {
		t.Fatalf("opened %d through At and AddConst, want 4", got)
	}
	// A sharing dealt afterwards draws from the stream at the position the
	// InputVec left it at.
	other := newTestEngine(t, 4)
	other.InputVec(2, []int64{1, 2, 3})
	a, ra := e.Input(0, 6), other.Input(0, 6)
	for i := range e.parties {
		if e.parties[i].sc[e.shared(a).ref] != other.parties[i].sc[other.shared(ra).ref] {
			t.Fatalf("party %d: the unshared input moved a sharing stream", i)
		}
	}
}

// TestOpenOnlyOperandsFailTheEngine: a sharing of degree above t — an
// unreduced product, an unshared input, or any linear gate over one —
// must not be multiplied or converted to additive shares: the engine
// fails with ErrOpenOnly instead of computing a wrong value, on both
// drivers, and opens zeros from then on. Linear gates and openings take
// the same handles without complaint.
func TestOpenOnlyOperandsFailTheEngine(t *testing.T) {
	type env struct {
		e    *Engine
		x    Val // degree t
		v    Vec // degree t, 3 elements
		high Val // open-only
		hvec Vec // open-only, 3 elements
	}
	sources := map[string]func(e *Engine, x Val, v Vec) (Val, Vec){
		"unreduced product": func(e *Engine, x Val, v Vec) (Val, Vec) {
			outs := e.MulBatchUnreduced([]MulItem{{Kind: MulScalar, A: x, B: x}, {Kind: MulDot, VA: v, VB: v}})
			return outs[0], e.FromScalars([]Val{outs[1], x, x})
		},
		"unshared input": func(e *Engine, x Val, v Vec) (Val, Vec) {
			u := e.InputUnshared(1, []int64{4, 5, 6})
			return e.At(u, 2), u
		},
		"linear gates over one": func(e *Engine, x Val, v Vec) (Val, Vec) {
			u := e.InputUnshared(0, []int64{4, 5, 6})
			s := e.MulConst(e.AddConst(e.Sub(e.Add(x, e.At(u, 0)), x), 3), 2)
			return s, e.LinComb([]Vec{v, e.Gather(e.AddVec(u, v), []int{2, 1, 0})}, []int64{1, 1}, 0)
		},
	}
	gates := map[string]func(c env){
		"Mul":          func(c env) { c.e.Mul(c.x, c.high) },
		"InnerProduct": func(c env) { c.e.InnerProduct([]Val{c.x, c.high}, []Val{c.x, c.x}) },
		"Dot":          func(c env) { c.e.Dot(c.hvec, c.v) },
		"DotBatch":     func(c env) { c.e.DotBatch([]VecPair{{A: c.v, B: c.v}, {A: c.v, B: c.hvec}}, 0) },
		"MulBatch": func(c env) {
			c.e.MulBatch([]MulItem{{Kind: MulScalar, A: c.x, B: c.x}, {Kind: MulScalar, A: c.high, B: c.x}})
		},
		"MulBatchUnreduced": func(c env) { c.e.MulBatchUnreduced([]MulItem{{Kind: MulDot, VA: c.hvec, VB: c.hvec}}) },
		"AdditiveShares":    func(c env) { c.e.AdditiveShares(c.high, make([]field.Elem, 4)) },
	}
	for _, mesh := range []bool{false, true} {
		for sname, source := range sources {
			for gname, gate := range gates {
				e := newTestEngine(t, 4)
				if mesh {
					e = newActorChan(t, Config{Parties: 4, Seed: 3})
				}
				c := env{e: e, x: e.Input(0, 6), v: e.InputVec(2, []int64{1, 2, 3})}
				c.high, c.hvec = source(e, c.x, c.v)
				// Linear gates and openings are what such a handle is for.
				e.OpenVec(e.AddVec(c.hvec, c.v))
				if got := e.Open(c.x); e.Err() != nil || got != 6 {
					t.Fatalf("mesh=%v %s: before the gate: opened %d, err %v", mesh, sname, got, e.Err())
				}
				gate(c)
				if err := e.Err(); !errors.Is(err, ErrOpenOnly) {
					t.Errorf("mesh=%v %s into %s: engine error %v, want ErrOpenOnly", mesh, sname, gname, err)
				}
				if got := e.Open(c.x); got != 0 {
					t.Errorf("mesh=%v %s into %s: a failed engine opened %d", mesh, sname, gname, got)
				}
			}
		}
	}
}

func TestBytesMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	e.ResetStats()
	a := e.Input(0, 2)                   // 3 messages x 8 bytes
	v := e.InputVec(1, []int64{1, 2, 3}) // 3 messages x 24 bytes
	e.Open(a)                            // 12 messages x 8 bytes
	e.OpenVec(v)                         // 12 messages x 24 bytes
	want := int64(3*8 + 3*24 + 12*8 + 12*24)
	if got := e.Stats().Bytes; got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestSharesLookRandom(t *testing.T) {
	// No single party's share should equal the secret systematically.
	e := newTestEngine(t, 4)
	const secret = 424242
	hits := 0
	for trial := 0; trial < 200; trial++ {
		ref := e.shared(e.Input(0, secret)).ref
		for _, pa := range e.parties {
			if pa.sc[ref] == 424242 {
				hits++
			}
		}
	}
	if hits > 2 {
		t.Fatalf("shares leak the secret (%d hits)", hits)
	}
}

func TestInputVecOpenVec(t *testing.T) {
	e := newTestEngine(t, 4)
	vs := []int64{5, -6, 0, 1 << 30}
	v := e.InputVec(2, vs)
	if v.Len() != 4 {
		t.Fatalf("Len = %d", v.Len())
	}
	got := e.OpenVec(v)
	for i, w := range vs {
		if got[i] != w {
			t.Fatalf("OpenVec = %v", got)
		}
	}
}

func TestVecAtMatchesScalar(t *testing.T) {
	e := newTestEngine(t, 3)
	v := e.InputVec(0, []int64{9, -4})
	if got := e.Open(e.At(v, 1)); got != -4 {
		t.Fatalf("At(1) = %d", got)
	}
}

// TestAddSubMulConstVec keeps its name from before the unreachable
// SubVec/MulConstVec/AddConstVec were deleted; AddVec is what is left.
func TestAddSubMulConstVec(t *testing.T) {
	e := newTestEngine(t, 4)
	a := e.InputVec(0, []int64{1, 2, 3})
	b := e.InputVec(1, []int64{10, 20, 30})
	if got := e.OpenVec(e.AddVec(a, b)); got[2] != 33 {
		t.Fatalf("AddVec = %v", got)
	}
}

// TestDotAndDotSubset keeps its name from before DotSubset was deleted.
func TestDotAndDotSubset(t *testing.T) {
	e := newTestEngine(t, 4)
	a := e.InputVec(0, []int64{1, 2, 3, 4})
	b := e.InputVec(1, []int64{5, 6, 7, 8})
	if got := e.Open(e.Dot(a, b)); got != 70 {
		t.Fatalf("Dot = %d", got)
	}
}

func TestFromScalars(t *testing.T) {
	e := newTestEngine(t, 3)
	xs := []Val{e.Input(0, 7), e.Input(1, -2)}
	v := e.FromScalars(xs)
	got := e.OpenVec(v)
	if got[0] != 7 || got[1] != -2 {
		t.Fatalf("FromScalars = %v", got)
	}
}

// A small end-to-end circuit: F(x) = Σ_records x1·x2 + noise, the shape
// of SQM's evaluation step.
func TestNoisyAggregateCircuit(t *testing.T) {
	e := newTestEngine(t, 4)
	col1 := e.InputVec(0, []int64{1, 2, 3})
	col2 := e.InputVec(1, []int64{4, 5, 6})
	e.AdvanceRound()
	sum := e.Dot(col1, col2) // 4 + 10 + 18 = 32
	// Each party adds its private noise share.
	noise := []int64{3, -1, 2, -2} // aggregate 2
	acc := sum
	for p, z := range noise {
		acc = e.Add(acc, e.Input(p, z))
	}
	e.AdvanceRound()
	if got := e.Open(acc); got != 34 {
		t.Fatalf("noisy aggregate = %d, want 34", got)
	}
}

func TestDotBatchMatchesSequential(t *testing.T) {
	e := newTestEngine(t, 4)
	const vecs, length = 9, 50
	vs := make([]Vec, vecs)
	raw := make([][]int64, vecs)
	for i := range vs {
		raw[i] = make([]int64, length)
		for k := range raw[i] {
			raw[i][k] = int64((i+1)*(k+3)%97) - 48
		}
		vs[i] = e.InputVec(i%4, raw[i])
	}
	var pairs []VecPair
	var want []int64
	for a := 0; a < vecs; a++ {
		for b := a; b < vecs; b++ {
			pairs = append(pairs, VecPair{A: vs[a], B: vs[b]})
			var dot int64
			for k := 0; k < length; k++ {
				dot += raw[a][k] * raw[b][k]
			}
			want = append(want, dot)
		}
	}
	// One batched round opens what one Dot per pair opens. (The pool
	// width sweep lives in TestMonoWorkerPoolDifferentialRace.)
	got := e.OpenBatch(e.DotBatch(pairs, 0))
	for i, pr := range pairs {
		if v := e.Open(e.Dot(pr.A, pr.B)); v != want[i] || got[i] != want[i] {
			t.Fatalf("pair %d: Dot %d, DotBatch %d, want %d", i, v, got[i], want[i])
		}
	}
}

func TestDotBatchEmpty(t *testing.T) {
	e := newTestEngine(t, 3)
	if got := e.DotBatch(nil, 4); len(got) != 0 {
		t.Fatal("empty batch should return empty slice")
	}
}

func TestDotBatchMetersLikeSequential(t *testing.T) {
	e := newTestEngine(t, 4)
	a := e.InputVec(0, []int64{1, 2, 3})
	b := e.InputVec(1, []int64{4, 5, 6})
	e.ResetStats()
	e.Dot(a, b)
	seq := e.Stats()
	e.ResetStats()
	e.DotBatch([]VecPair{{A: a, B: b}}, 4)
	par := e.Stats()
	if seq.Messages != par.Messages || seq.FieldOps != par.FieldOps {
		t.Fatalf("metering differs: seq %+v vs par %+v", seq, par)
	}
}

func TestInputElemOpenElemRoundTrip(t *testing.T) {
	e := newTestEngine(t, 4)
	// Raw field elements beyond the signed embedding range must survive.
	big := field.Elem(field.Modulus - 3)
	s := e.InputElem(1, big)
	var got field.Elem
	for _, a := range e.AdditiveShares(s, lagrangeWeightsForTest(4)) {
		got = field.Add(got, a)
	}
	if got != big {
		t.Fatalf("raw element = %d, want %d", got, big)
	}
}

func TestAdditiveSharesConversion(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.Input(0, 9876)
	w := shamir.LagrangeAtZero(shamir.PartyPoints(4))
	add := e.AdditiveShares(s, w)
	var sum field.Elem
	for _, a := range add {
		sum = field.Add(sum, a)
	}
	if field.ToInt64(sum) != 9876 {
		t.Fatalf("additive conversion sums to %d", field.ToInt64(sum))
	}
}

func TestAdditiveSharesWeightMismatchPanics(t *testing.T) {
	e := newTestEngine(t, 4)
	s := e.Input(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.AdditiveShares(s, make([]field.Elem, 2))
}

// TestForeignSharePanics: every operation that takes a handle refuses
// one issued by another engine, At and Gather refuse an index out of
// range and LinComb refuses terms that do not line up, with an
// invariant.Violation rather than computing on foreign slots or
// a raw runtime panic.
func TestForeignSharePanics(t *testing.T) {
	e1 := newTestEngine(t, 3)
	e2 := newTestEngine(t, 3)
	a, av := e1.Input(0, 1), e1.InputVec(0, []int64{1, 2})
	b, bv := e2.Input(0, 2), e2.InputVec(0, []int64{3, 4})
	w := lagrangeWeightsForTest(3)
	for name, op := range map[string]func(){
		"Add":                func() { e1.Add(a, b) },
		"Sub":                func() { e1.Sub(b, a) },
		"Mul":                func() { e1.Mul(a, b) },
		"AddConst":           func() { e1.AddConst(b, 1) },
		"MulConst":           func() { e1.MulConst(b, 2) },
		"InnerProduct":       func() { e1.InnerProduct([]Val{a}, []Val{b}) },
		"AdditiveShares":     func() { e1.AdditiveShares(b, w) },
		"FromScalars":        func() { e1.FromScalars([]Val{a, b}) },
		"Open":               func() { e1.Open(b) },
		"OpenBatch":          func() { e1.OpenBatch([]Val{a, b}) },
		"At":                 func() { e1.At(bv, 0) },
		"AddVec":             func() { e1.AddVec(av, bv) },
		"Dot":                func() { e1.Dot(bv, av) },
		"OpenVec":            func() { e1.OpenVec(bv) },
		"Gather":             func() { e1.Gather(bv, []int{0}) },
		"LinComb":            func() { e1.LinComb([]Vec{av, bv}, []int64{1, 1}, 0) },
		"At index = len":     func() { e1.At(av, 2) },
		"At index = -1":      func() { e1.At(av, -1) },
		"Gather index = len": func() { e1.Gather(av, []int{0, 2}) },
		"Gather index = -1":  func() { e1.Gather(av, []int{-1}) },
		"LinComb lengths":    func() { e1.LinComb([]Vec{av, e1.InputVec(0, []int64{1})}, []int64{1, 1}, 0) },
		"LinComb term count": func() { e1.LinComb([]Vec{av}, []int64{1, 1}, 0) },
		"nil scalar":         func() { e1.Add(a, nil) },
		"foreign type":       func() { e1.Add(a, 7) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: expected a panic", name)
				} else if _, ok := r.(*invariant.Error); !ok {
					t.Errorf("%s: panicked with %T (%v), want an invariant violation", name, r, r)
				}
			}()
			op()
		}()
	}
	// Nothing above reached the parties: both engines still work.
	if got := e1.Open(e1.Add(a, e1.At(av, 1))); got != 3 {
		t.Fatalf("e1 after refused operations opened %d, want 3", got)
	}
	if err := e1.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMoreParties(t *testing.T) {
	// 10 parties, threshold 4: deep arithmetic still exact.
	e, err := NewEngine(Config{Parties: 10, Threshold: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := e.Input(3, 1234)
	b := e.Input(7, -56)
	c := e.Mul(e.Add(a, b), b) // (1234-56)·(-56)
	if got := e.Open(c); got != 1178*-56 {
		t.Fatalf("got %d", got)
	}
}

func BenchmarkMul4Parties(b *testing.B) {
	e, _ := NewEngine(Config{Parties: 4, Seed: 1})
	x := e.Input(0, 123)
	y := e.Input(1, 456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Mul(x, y)
	}
}

func BenchmarkDot1000(b *testing.B) {
	e, _ := NewEngine(Config{Parties: 4, Seed: 1})
	vs := make([]int64, 1000)
	for i := range vs {
		vs[i] = int64(i)
	}
	x := e.InputVec(0, vs)
	y := e.InputVec(1, vs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dot(x, y)
	}
}
