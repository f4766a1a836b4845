package bgw

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

func newTestEngine(t *testing.T, parties int) *Engine {
	t.Helper()
	return newActorChan(t, Config{Parties: parties, Seed: 7})
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{Parties: 2}); err == nil {
		t.Fatal("2 parties must be rejected (no t >= 1 fits)")
	}
	if _, err := NewEngine(Config{Parties: 4, Threshold: 2}); err == nil {
		t.Fatal("P < 2t+1 must be rejected")
	}
	e := newActorChan(t, Config{Parties: 5})
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
	before := e.Stats()
	e.InnerProduct(as, bs)
	msgs := e.Stats().Sub(before).Messages
	// One resharing: each of the P dealers sends its P − 1 − t unseeded
	// peers one message.
	if want := int64(4 * (4 - 1 - 1)); msgs != want {
		t.Fatalf("fused inner product used %d messages, want one resharing = %d", msgs, want)
	}
}

// TestStatsMetering drives Input, Mul and Open gate by gate: a bare Input
// always shares and a bare Mul always reduces, whatever a plan would make
// of the leaves and the level. Each is an exchange the engine issues: an
// Input's At issues its dealing as an input round of its own, so the
// two Inputs, the Mul and the Open are 4 rounds. At P = 4, t = 1 a
// dealing sends P − 1 − t = 2 messages and an opening P − 1 = 3, one row
// into party 0 from each peer.
func TestStatsMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	before := e.Stats()
	a := e.Input(0, 2) // 2 messages, round 1
	b := e.Input(1, 3) // 2 messages, round 2
	c := e.Mul(a, b)   // 4 dealers × 2 messages, round 3
	e.Open(c)          // 3 messages, round 4
	st := e.Stats().Sub(before)
	if st.Messages != 2+2+8+3 {
		t.Fatalf("Messages = %d", st.Messages)
	}
	if st.Rounds != 4 {
		t.Fatalf("Rounds = %d", st.Rounds)
	}
	if st.NetTime(DefaultLatency) != 4*DefaultLatency {
		t.Fatalf("NetTime = %v", st.NetTime(DefaultLatency))
	}
	if st.FieldOps == 0 {
		t.Fatal("FieldOps not metered")
	}
}

// TestStatsAddSub: Add and Sub work field by field, and Sub undoes Add.
func TestStatsAddSub(t *testing.T) {
	a := Stats{Rounds: 1, Frames: 20, Messages: 300, Bytes: 4000, FieldOps: 50000}
	b := Stats{Rounds: 6, Frames: 7, Messages: 8, Bytes: 9, FieldOps: 10}
	if got, want := a.Add(b), (Stats{Rounds: 7, Frames: 27, Messages: 308, Bytes: 4009, FieldOps: 50010}); got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got, want := a.Sub(b), (Stats{Rounds: -5, Frames: 13, Messages: 292, Bytes: 3991, FieldOps: 49990}); got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("(a + b) − b = %+v, want %+v", got, a)
	}
	if got := a.Sub(a); got != (Stats{}) {
		t.Fatalf("a − a = %+v, want zero", got)
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
	before := e.Stats()
	outs := e.MulBatchUnreduced([]MulItem{
		{Kind: MulScalar, A: a, B: b},
		{Kind: MulInner, As: []Val{a, b}, Bs: []Val{a, b}},
		{Kind: MulDot, VA: v, VB: v},
	})
	if st := e.Stats().Sub(before); st != (Stats{FieldOps: 4 * (1 + 2 + 3)}) {
		t.Fatalf("unreduced level metered %+v, want only 4·6 field operations", st)
	}
	got := e.OpenBatch(outs)
	if want := []int64{-42, 36 + 49, 14}; !equalInt64(got, want) {
		t.Fatalf("opened %v, want %v", got, want)
	}
	// The opening's three elements travel as one row from each of the
	// P − 1 = 3 peers into party 0: one round, 3 frames, 9 messages, 72
	// bytes.
	if st := e.Stats().Sub(before); st != (Stats{Rounds: 1, Frames: 3, Messages: 9, Bytes: 72, FieldOps: 4*6 + 4*3}) {
		t.Fatalf("after the opening %+v", st)
	}
	// A reduced product of the same inputs draws from the sharing streams
	// at the position two Input calls and an InputVec left them at.
	ref := newTestEngine(t, 4)
	ra, rb := ref.Input(0, 6), ref.Input(1, -7)
	ref.InputVec(2, []int64{1, 2, 3})
	c, rc := e.Mul(a, b), ref.Mul(ra, rb)
	// Stats is a barrier: the parties are idle and their slots safe to read.
	e.Stats()
	ref.Stats()
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
	before := e.Stats()
	xs := []int64{-5, 0, 1 << 40}
	u := e.InputUnshared(1, xs)
	if st := e.Stats().Sub(before); st != (Stats{FieldOps: 3}) {
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
	e.Stats()
	other.Stats()
	for i := range e.parties {
		if e.parties[i].sc[e.shared(a).ref] != other.parties[i].sc[other.shared(ra).ref] {
			t.Fatalf("party %d: the unshared input moved a sharing stream", i)
		}
	}
}

// TestOpenOnlyOperandsFailTheEngine: a multiplication whose operand
// degrees sum above P−1 would leave the P points an opening or a
// resharing interpolates over, so the engine fails with ErrOpenOnly
// instead of computing a wrong value, and opens zeros
// from then on; one within P−1 is computed. The matrix: an unreduced
// product (degree 2t), or a linear gate over one, times a degree-t share
// is refused at P = 3, t = 1 and at P = 5, t = 2 and accepted at P = 4,
// t = 1 and at P = 7, t = 2, where it opens right, a MulBatch of it is a
// readable degree-t handle and an unreduced one, at degree P−1, refuses
// one more share; the product times itself is refused at every one of
// them; an unshared input (degree P−1), or a linear gate over one, is
// refused at every P. An inner product takes its largest pair's degree:
// InnerProduct([x, h], [h, x]) of an unreduced product h is accepted
// where h times a share is. Linear gates and openings take every handle.
func TestOpenOnlyOperandsFailTheEngine(t *testing.T) {
	type env struct {
		e    *Engine
		x    Val // degree t, 6
		v    Vec // degree t, [1 2 3]
		high Val // the source's scalar
		hvec Vec // the source's vector, 3 elements
	}
	type source struct {
		make func(e *Engine, x Val, v Vec) (Val, Vec)
		val  int64   // what high opens to
		vec  []int64 // what hvec opens to
		deg  func(p, t int) int
	}
	product := func(p, t int) int { return 2 * t }
	unshared := func(p, t int) int { return p - 1 }
	sources := map[string]source{
		"unreduced product": {func(e *Engine, x Val, v Vec) (Val, Vec) {
			outs := e.MulBatchUnreduced([]MulItem{{Kind: MulScalar, A: x, B: x}, {Kind: MulDot, VA: v, VB: v}})
			return outs[0], e.FromScalars([]Val{outs[1], x, x})
		}, 36, []int64{14, 6, 6}, product},
		"linear gates over an unreduced product": {func(e *Engine, x Val, v Vec) (Val, Vec) {
			sq := e.MulBatchUnreduced([]MulItem{{Kind: MulScalar, A: x, B: x}})[0]
			s := e.MulConst(e.AddConst(e.Sub(e.Add(x, sq), x), 3), 2)
			return s, e.LinComb([]Vec{v, e.GatherBatch([]Vec{e.FromScalars([]Val{sq, x, s})}, []int{2, 1, 0})[0]}, []int64{1, 1}, 0)
		}, 78, []int64{79, 8, 39}, product},
		"unshared input": {func(e *Engine, x Val, v Vec) (Val, Vec) {
			u := e.InputUnshared(1, []int64{4, 5, 6})
			return e.At(u, 2), u
		}, 6, []int64{4, 5, 6}, unshared},
		"linear gates over one": {func(e *Engine, x Val, v Vec) (Val, Vec) {
			u := e.InputUnshared(0, []int64{4, 5, 6})
			s := e.MulConst(e.AddConst(e.Sub(e.Add(x, e.At(u, 0)), x), 3), 2)
			return s, e.LinComb([]Vec{v, e.GatherBatch([]Vec{e.AddVec(u, v)}, []int{2, 1, 0})[0]}, []int64{1, 1}, 0)
		}, 14, []int64{10, 9, 8}, unshared},
	}
	dot := func(a, b []int64) (s int64) {
		for k := range a {
			s += a[k] * b[k]
		}
		return s
	}
	v := []int64{1, 2, 3}
	// Each gate multiplies the source by a degree-t share — or, square, by
	// itself — and returns the handle and what it opens to.
	gates := map[string]struct {
		square, reduced bool
		run             func(c env, s source) (Val, int64)
	}{
		"Mul": {false, true, func(c env, s source) (Val, int64) { return c.e.Mul(c.x, c.high), 6 * s.val }},
		"InnerProduct": {false, true, func(c env, s source) (Val, int64) {
			return c.e.InnerProduct([]Val{c.x, c.high}, []Val{c.x, c.x}), 36 + 6*s.val
		}},
		// Crossed: every pair is the source times a share, so the degree
		// is deg + t, while the sides packed for the dot would sum to
		// 2·deg. The pairs' degree decides.
		"InnerProduct crossed": {false, true, func(c env, s source) (Val, int64) {
			return c.e.InnerProduct([]Val{c.x, c.high}, []Val{c.high, c.x}), 2 * 6 * s.val
		}},
		"Dot": {false, true, func(c env, s source) (Val, int64) { return c.e.Dot(c.hvec, c.v), dot(s.vec, v) }},
		"DotBatch": {false, true, func(c env, s source) (Val, int64) {
			return c.e.DotBatch([]VecPair{{A: c.v, B: c.v}, {A: c.v, B: c.hvec}}, 0)[1], dot(s.vec, v)
		}},
		"MulBatch": {false, true, func(c env, s source) (Val, int64) {
			return c.e.MulBatch([]MulItem{{Kind: MulScalar, A: c.x, B: c.x}, {Kind: MulScalar, A: c.high, B: c.x}})[1], 6 * s.val
		}},
		"MulBatchUnreduced": {false, false, func(c env, s source) (Val, int64) {
			return c.e.MulBatchUnreduced([]MulItem{{Kind: MulDot, VA: c.hvec, VB: c.v}})[0], dot(s.vec, v)
		}},
		"MulBatchUnreduced of two": {true, false, func(c env, s source) (Val, int64) {
			return c.e.MulBatchUnreduced([]MulItem{{Kind: MulDot, VA: c.hvec, VB: c.hvec}})[0], dot(s.vec, s.vec)
		}},
		// A Hadamard's vector, read through one element.
		"Hadamard": {false, true, func(c env, s source) (Val, int64) {
			return c.e.At(c.e.MulBatch([]MulItem{{Kind: MulHadamard, VA: c.hvec, VB: c.v}})[0].(Vec), 2), s.vec[2] * v[2]
		}},
		"Hadamard unreduced": {false, false, func(c env, s source) (Val, int64) {
			return c.e.At(c.e.MulBatchUnreduced([]MulItem{{Kind: MulHadamard, VA: c.v, VB: c.hvec}})[0].(Vec), 1), v[1] * s.vec[1]
		}},
	}
	for _, pt := range []struct{ p, t int }{{3, 1}, {4, 1}, {5, 2}, {7, 2}} {
		cfg := Config{Parties: pt.p, Threshold: pt.t, Seed: 3}
		for sname, src := range sources {
			for gname, gate := range gates {
				name := fmt.Sprintf("P=%d t=%d %s into %s", pt.p, pt.t, sname, gname)
				e := newActorChan(t, cfg)
				c := env{e: e, x: e.Input(0, 6), v: e.InputVec(2, v)}
				c.high, c.hvec = src.make(e, c.x, c.v)
				// Linear gates and openings are what such a handle is for.
				if got := e.OpenVec(e.AddVec(c.hvec, c.v)); e.Err() != nil || got[0] != src.vec[0]+1 || got[2] != src.vec[2]+3 {
					t.Fatalf("%s: before the gate: opened %v, err %v", name, got, e.Err())
				}
				deg := src.deg(pt.p, pt.t)
				other := pt.t
				if gate.square {
					other = deg
				}
				accept := deg+other <= pt.p-1
				if sname == "unreduced product" && !gate.square && accept != (pt.p == 4 || pt.p == 7) {
					t.Fatalf("%s: accepted %v, the matrix says otherwise", name, accept)
				}
				h, want := gate.run(c, src)
				if !accept {
					if err := e.Err(); !errors.Is(err, ErrOpenOnly) {
						t.Errorf("%s: engine error %v, want ErrOpenOnly", name, err)
					}
					if got := e.Open(c.x); got != 0 {
						t.Errorf("%s: a failed engine opened %d", name, got)
					}
					continue
				}
				hdeg := e.shared(h).deg
				if got := e.Open(h); e.Err() != nil || got != want {
					t.Errorf("%s: opened %d, err %v; want %d", name, got, e.Err(), want)
					continue
				}
				if sharesDegree(e, h) > hdeg {
					t.Errorf("%s: the shares lie on a polynomial of degree %d, the handle says %d", name, sharesDegree(e, h), hdeg)
				}
				if gate.reduced {
					// Readable: a degree-t sharing, good for any product.
					if got := e.Open(e.Mul(h, h)); hdeg != pt.t || e.Err() != nil || got != want*want {
						t.Errorf("%s: degree %d, squared to %d, err %v; want degree %d and %d", name, hdeg, got, e.Err(), pt.t, want*want)
					}
					continue
				}
				if hdeg != pt.p-1 {
					t.Errorf("%s: unreduced at degree %d, want P−1 = %d", name, hdeg, pt.p-1)
				}
				if e.Mul(h, c.x); !errors.Is(e.Err(), ErrOpenOnly) {
					t.Errorf("%s: a share times the degree-(P−1) product: engine error %v, want ErrOpenOnly", name, e.Err())
				}
			}
		}
	}
}

// sharesDegree returns the degree of the polynomial the parties' shares
// of v lie on, read after a barrier: the least d whose first d+1 points
// interpolate every other.
func sharesDegree(e *Engine, v Val) int {
	e.Stats()
	points := shamir.PartyPoints(e.p)
	ref := e.shared(v).ref
	for d := 0; d < e.p-1; d++ {
		on := true
		for j := d + 1; j < e.p && on; j++ {
			var y field.Elem
			for i, w := range lagrangeAt(points[:d+1], points[j]) {
				y = field.Add(y, field.Mul(w, e.parties[i].sc[ref]))
			}
			on = y == e.parties[j].sc[ref]
		}
		if on {
			return d
		}
	}
	return e.p - 1
}

func TestBytesMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	before := e.Stats()
	a := e.Input(0, 2)                   // P − 1 − t = 2 messages x 8 bytes
	v := e.InputVec(1, []int64{1, 2, 3}) // 2 messages x 24 bytes
	e.Open(a)                            // P − 1 = 3 messages x 8 bytes
	e.OpenVec(v)                         // 3 messages x 24 bytes
	want := int64(2*8 + 2*24 + 3*8 + 3*24)
	if got := e.Stats().Sub(before).Bytes; got != want {
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
		e.Stats()
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
	sum := e.Dot(col1, col2) // 4 + 10 + 18 = 32
	// Each party adds its private noise share.
	noise := []int64{3, -1, 2, -2} // aggregate 2
	acc := sum
	for p, z := range noise {
		acc = e.Add(acc, e.Input(p, z))
	}
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
	// One batched round opens what one Dot per pair opens.
	got := e.OpenBatch(e.DotBatch(pairs, 0))
	for i, pr := range pairs {
		if v := e.Open(e.Dot(pr.A, pr.B)); v != want[i] || got[i] != want[i] {
			t.Fatalf("pair %d: Dot %d, DotBatch %d, want %d", i, v, got[i], want[i])
		}
	}
}

// TestGramBatchTakesWinogradPairs opens a Gram batch — all pairs of 9
// columns of odd length 101, the covariance's shape — and an LR-shaped
// batch — d dots of d columns with one shared vector, no reuse to speak
// of — on both drivers, reduced and unreduced. Every opened value is the
// plain inner product; only the Gram batch lists its columns for the
// parties' pair products; and either batch meters the FieldOps of the
// same dots issued one at a time, where every dot is a DotAcc.
func TestGramBatchTakesWinogradPairs(t *testing.T) {
	const cols, length = 9, 101
	raw := make([][]int64, cols+1)
	for i := range raw {
		raw[i] = make([]int64, length)
		for k := range raw[i] {
			raw[i][k] = int64((i+2)*(k+5)%89) - 44
		}
	}
	dot := func(a, b int) int64 {
		var s int64
		for k := range raw[a] {
			s += raw[a][k] * raw[b][k]
		}
		return s
	}
	var gram, lr [][2]int
	for a := 0; a < cols; a++ {
		for b := a; b < cols; b++ {
			gram = append(gram, [2]int{a, b})
		}
		lr = append(lr, [2]int{a, cols})
	}
	for _, shape := range []struct {
		name     string
		pairs    [][2]int
		winograd bool
	}{{"gram", gram, true}, {"lr", lr, false}} {
		for _, unreduced := range []bool{false, true} {
			for name, e := range vecGateEngines(t) {
				vs := make([]Vec, len(raw))
				for i := range vs {
					vs[i] = e.InputVec(i%e.Parties(), raw[i])
				}
				items := make([]MulItem, len(shape.pairs))
				for i, pr := range shape.pairs {
					items[i] = MulItem{Kind: MulDot, VA: vs[pr[0]], VB: vs[pr[1]]}
				}
				before := e.Stats()
				batch := e.MulBatch
				if unreduced {
					batch = e.MulBatchUnreduced
				}
				got := e.OpenBatch(batch(items))
				batchOps := e.Stats().FieldOps - before.FieldOps
				// Stats synchronised with the parties: their scratch is
				// readable, and only pair products fill it.
				for i, pa := range e.parties {
					if paired := pa.pairs != nil; paired != shape.winograd {
						t.Fatalf("%s/%s: party %d computed pair products: %v, want %v", shape.name, name, i, paired, shape.winograd)
					}
				}
				before = e.Stats()
				for _, it := range items {
					batch([]MulItem{it})
				}
				// The batch was also opened: one λ_i·s_i per element and party.
				singles := e.Stats().FieldOps - before.FieldOps + int64(e.Parties()*len(items))
				if batchOps != singles {
					t.Errorf("%s/%s unreduced=%v: batch and opening metered %d field ops, one dot at a time %d", shape.name, name, unreduced, batchOps, singles)
				}
				for i, pr := range shape.pairs {
					if want := dot(pr[0], pr[1]); got[i] != want {
						t.Fatalf("%s/%s unreduced=%v: dot %d = %d, want %d", shape.name, name, unreduced, i, got[i], want)
					}
				}
				if err := e.Err(); err != nil {
					t.Fatalf("%s/%s: %v", shape.name, name, err)
				}
				e.Close()
			}
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
	before := e.Stats()
	e.Dot(a, b)
	mid := e.Stats()
	seq := mid.Sub(before)
	e.DotBatch([]VecPair{{A: a, B: b}}, 4)
	par := e.Stats().Sub(mid)
	if seq.Messages != par.Messages || seq.FieldOps != par.FieldOps {
		t.Fatalf("metering differs: seq %+v vs par %+v", seq, par)
	}
}

func TestInputElemOpenElemRoundTrip(t *testing.T) {
	e := newTestEngine(t, 4)
	// Raw field elements beyond the signed embedding range must survive.
	big := field.Elem(field.Modulus - 3)
	if got := reconstructForTest(e, e.InputElem(1, big)); got != big {
		t.Fatalf("raw element = %d, want %d", got, big)
	}
}

// reconstructForTest interpolates a scalar handle from every party's
// slot, read after a barrier: a window onto the raw element, which no
// exported method hands out (Open decodes to a signed int64).
func reconstructForTest(e *Engine, v Val) field.Elem {
	e.Stats()
	ref := e.shared(v).ref
	shares := make([]field.Elem, e.p)
	for i, pa := range e.parties {
		shares[i] = pa.sc[ref]
	}
	return shamir.Reconstruct(shamir.PartyPoints(e.p), shares)
}

// TestEngineExportsNoShareMaterial: a party's share leaves the package
// only inside an opening. No exported method of the engine or of
// Evaluator returns a field element, bare or inside a slice, map, array,
// pointer or struct, and the handles expose nothing but their methods.
func TestEngineExportsNoShareMaterial(t *testing.T) {
	elem := reflect.TypeOf(field.Elem(0))
	for _, typ := range []reflect.Type{reflect.TypeOf((*Engine)(nil)), reflect.TypeOf((*Evaluator)(nil)).Elem()} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			for j := 0; j < m.Type.NumOut(); j++ {
				if containsTypeForTest(m.Type.Out(j), elem, map[reflect.Type]bool{}) {
					t.Errorf("%v.%s returns %v, which carries %v", typ, m.Name, m.Type.Out(j), elem)
				}
			}
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Shared{}), reflect.TypeOf(SharedVec{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				t.Errorf("%v exports field %s", typ, f.Name)
			}
		}
	}
}

// containsTypeForTest reports whether t is want or holds one through
// pointers, slices, arrays, maps, channels or struct fields.
func containsTypeForTest(t, want reflect.Type, seen map[reflect.Type]bool) bool {
	if t == want {
		return true
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		return containsTypeForTest(t.Elem(), want, seen)
	case reflect.Map:
		return containsTypeForTest(t.Key(), want, seen) || containsTypeForTest(t.Elem(), want, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if containsTypeForTest(t.Field(i).Type, want, seen) {
				return true
			}
		}
	}
	return false
}

// TestForeignSharePanics: every operation that takes a handle refuses
// one issued by another engine, At and GatherBatch refuse an index out
// of range and LinComb refuses terms that do not line up, with an
// invariant.Violation rather than computing on foreign slots or
// a raw runtime panic.
func TestForeignSharePanics(t *testing.T) {
	e1 := newTestEngine(t, 3)
	e2 := newTestEngine(t, 3)
	a, av := e1.Input(0, 1), e1.InputVec(0, []int64{1, 2})
	b, bv := e2.Input(0, 2), e2.InputVec(0, []int64{3, 4})
	for name, op := range map[string]func(){
		"Add":                     func() { e1.Add(a, b) },
		"Sub":                     func() { e1.Sub(b, a) },
		"Mul":                     func() { e1.Mul(a, b) },
		"AddConst":                func() { e1.AddConst(b, 1) },
		"MulConst":                func() { e1.MulConst(b, 2) },
		"InnerProduct":            func() { e1.InnerProduct([]Val{a}, []Val{b}) },
		"FromScalars":             func() { e1.FromScalars([]Val{a, b}) },
		"Open":                    func() { e1.Open(b) },
		"OpenBatch":               func() { e1.OpenBatch([]Val{a, b}) },
		"At":                      func() { e1.At(bv, 0) },
		"AddVec":                  func() { e1.AddVec(av, bv) },
		"Dot":                     func() { e1.Dot(bv, av) },
		"OpenVec":                 func() { e1.OpenVec(bv) },
		"GatherBatch":             func() { e1.GatherBatch([]Vec{av, bv}, []int{0}) },
		"LinComb":                 func() { e1.LinComb([]Vec{av, bv}, []int64{1, 1}, 0) },
		"At index = len":          func() { e1.At(av, 2) },
		"At index = -1":           func() { e1.At(av, -1) },
		"GatherBatch index = len": func() { e1.GatherBatch([]Vec{av}, []int{0, 2}) },
		"GatherBatch index = -1":  func() { e1.GatherBatch([]Vec{av}, []int{-1}) },
		"LinComb lengths":         func() { e1.LinComb([]Vec{av, e1.InputVec(0, []int64{1})}, []int64{1, 1}, 0) },
		"LinComb term count":      func() { e1.LinComb([]Vec{av}, []int64{1, 1}, 0) },
		"nil scalar":              func() { e1.Add(a, nil) },
		"foreign type":            func() { e1.Add(a, 7) },
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
	e := newActorChan(t, Config{Parties: 10, Threshold: 4, Seed: 1})
	a := e.Input(3, 1234)
	b := e.Input(7, -56)
	c := e.Mul(e.Add(a, b), b) // (1234-56)·(-56)
	if got := e.Open(c); got != 1178*-56 {
		t.Fatalf("got %d", got)
	}
}

func BenchmarkMul4Parties(b *testing.B) {
	e, _ := NewEngine(Config{Parties: 4, Seed: 1})
	defer e.Close()
	x := e.Input(0, 123)
	y := e.Input(1, 456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Mul(x, y)
	}
	e.Stats() // the parties run behind the caller: wait for the last level
}

// BenchmarkGramDotBatch is cov_mono's terminal level on the engine: the
// 7 260 dots of all pairs of 120 columns of 1 000 shares as one MulDots
// item, on 4 parties, kept unreduced. Every party computes 120 pair
// products and 7 260 Winograd dots per op, on its own goroutine.
func BenchmarkGramDotBatch(b *testing.B) {
	const cols, length = 120, 1000
	e, _ := NewEngine(Config{Parties: 4, Seed: 1})
	defer e.Close()
	g := randx.New(2)
	vs := make([]Vec, cols)
	for i := range vs {
		col := make([]int64, length)
		for k := range col {
			col[k] = int64(g.IntN(1 << 16))
		}
		vs[i] = e.InputVec(i%4, col)
	}
	var pairs []int32
	for a := int32(0); a < cols; a++ {
		for c := a; c < cols; c++ {
			pairs = append(pairs, a, c)
		}
	}
	items := []MulItem{{Kind: MulDots, Vecs: vs, Pairs: pairs}}
	e.Stats() // the input round is dealt before the timer starts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MulBatchUnreduced(items)
		e.Stats()
	}
}

func BenchmarkDot1000(b *testing.B) {
	e, _ := NewEngine(Config{Parties: 4, Seed: 1})
	defer e.Close()
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
	e.Stats() // the parties run behind the caller: wait for the last level
}
