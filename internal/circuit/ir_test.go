package circuit

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"sqm/internal/bgw"
	"sqm/internal/invariant"
)

// TestNodeIsCompactAndPointerFree pins the IR's memory shape: a plan of
// tens of thousands of gates must stay one flat allocation of at most 40
// bytes a node that the garbage collector has no reason to scan.
func TestNodeIsCompactAndPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(node{}); sz > 40 {
		t.Fatalf("node is %d bytes, budget 40", sz)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
			reflect.Interface, reflect.String, reflect.UnsafePointer:
			t.Errorf("%s holds a pointer (%s)", path, ty)
		}
	}
	walk("node", reflect.TypeOf(node{}))
}

// TestRecordingScalarGatesAllocatesChunksOnly: recording costs the
// amortised growth of the node slice plus the handle arena's chunks,
// which double up to 32 KB — never an allocation per gate.
func TestRecordingScalarGatesAllocatesChunksOnly(t *testing.T) {
	const gates = 10000
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(4, 0)
		acc := b.Zero()
		x := b.ExtVal()
		for i := 0; i < gates/2; i++ {
			acc = b.Add(acc, b.MulConst(x, int64(i)))
		}
	})
	// ~11 handle chunks, ~25 doublings of the node slice, the builder.
	t.Logf("%.0f allocations for %d gates", allocs, gates)
	if allocs > 60 {
		t.Fatalf("recording %d scalar gates cost %.0f allocations, want chunk growth only (<= 60)", gates, allocs)
	}
}

// TestRecordingVectorGatesAllocatesChunksOnly: the vector gates'
// handles come from chunks too — recording costs the amortised growth
// of the node slice and the operand arena plus the handle arena's
// chunks, never an allocation per gate.
func TestRecordingVectorGatesAllocatesChunksOnly(t *testing.T) {
	const gates = 10000
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(4, 0)
		x := b.ExtVec(4)
		acc, terms := x, []bgw.Vec{x, x}
		for i := 0; i < gates/2; i++ {
			if i%2 == 0 {
				acc = b.AddVec(acc, b.LinComb(terms, nil, 0))
			} else {
				acc = b.AddVec(acc, b.Hadamard(acc, x))
			}
		}
	})
	// ~13 handle chunks, ~25 doublings of the node slice, ~20 of the
	// operand arena, the builder.
	t.Logf("%.0f allocations for %d gates", allocs, gates)
	if allocs > 80 {
		t.Fatalf("recording %d vector gates cost %.0f allocations, want chunk growth only (<= 80)", gates, allocs)
	}
}

// mustViolate runs fn and demands an invariant.Violation panic.
func mustViolate(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if _, ok := r.(*invariant.Error); !ok {
			t.Fatalf("%s: recovered %v, want an invariant.Violation", what, r)
		}
	}()
	fn()
}

// TestBuilderIsSpentAfterCompile: Compile hands the recording to the
// plan instead of copying it, so the builder must refuse further use —
// while handles it issued stay valid for Result.VecOf.
func TestBuilderIsSpentAfterCompile(t *testing.T) {
	b := NewBuilder(4, 0)
	x := b.InputVec(0, []int64{6})
	y := b.InputVec(1, []int64{7})
	prod := b.Dot(x, y)
	b.OpenIdx(prod)
	plan := b.MustCompile()

	mustViolate(t, "AddVec after Compile", func() { b.AddVec(x, y) })
	mustViolate(t, "InputVec after Compile", func() { b.InputVec(0, []int64{1}) })
	mustViolate(t, "OpenIdx after Compile", func() { b.OpenIdx(prod) })
	if _, err := b.Compile(); err == nil {
		t.Fatal("second Compile succeeded")
	}

	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(bgw.Eval(eng), Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Opened(0); got != 42 {
		t.Fatalf("opened %d, want 42", got)
	}
	// x, not prod: only the opening reads the product, which keeps degree
	// 2t and does not resolve (TestTerminalLevelHandlesDoNotResolve).
	if res.VecOf(x) == nil {
		t.Fatal("handle of a spent builder no longer resolves")
	}
}

// TestVectorGatesAreCheckedWhenRecorded: the Builder refuses what the
// engine would — LinComb terms of unlike lengths or without a
// coefficient each, a foreign handle — at the call that records it.
func TestVectorGatesAreCheckedWhenRecorded(t *testing.T) {
	b, other := NewBuilder(4, 0), NewBuilder(4, 0)
	v, w := b.InputVec(0, []int64{1, 2, 3}), b.InputVec(1, []int64{4, 5})
	foreign := other.InputVec(0, []int64{1, 2, 3})
	mustViolate(t, "LinComb of unlike lengths", func() { b.LinComb([]bgw.Vec{v, w}, []int64{1, 1}, 0) })
	mustViolate(t, "LinComb short of coefficients", func() { b.LinComb([]bgw.Vec{v, v}, []int64{1}, 0) })
	mustViolate(t, "LinComb of a foreign vector", func() { b.LinComb([]bgw.Vec{v, foreign}, []int64{1, 1}, 0) })
	if n := b.LinComb(nil, nil, 9).Len(); n != 0 {
		t.Fatalf("LinComb of no terms records %d elements, want the empty vector", n)
	}
}

// TestIDSpaceOverflowIsAnError: ids, arena offsets and lengths are 32
// bits wide; a recording that outgrows them must fail Compile, never
// wrap an id. The limit is lowered so the test does not need 2³¹ nodes.
func TestIDSpaceOverflowIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(b *Builder)
	}{
		{"node ids", func(b *Builder) {
			acc := b.Zero()
			for i := 0; i < 20; i++ {
				acc = b.AddConst(acc, 1)
			}
		}},
		{"operand arena", func(b *Builder) {
			xs := make([]bgw.Val, 12)
			for i := range xs {
				xs[i] = b.Zero()
			}
			b.InnerProduct(xs, xs) // 24 operands end past the limit; 13 nodes do not
		}},
		{"vector length", func(b *Builder) { b.InputVec(0, make([]int64, 17)) }},
		{"lincomb operand list", func(b *Builder) {
			v := b.InputVec(0, []int64{1})
			vs := make([]bgw.Vec, 17)
			for i := range vs {
				vs[i] = v
			}
			b.LinComb(vs, make([]int64, 17), 0)
		}},
	} {
		b := NewBuilder(4, 0)
		b.limit = 16
		tc.record(b)
		if _, err := b.Compile(); err == nil || !strings.Contains(err.Error(), "id space") {
			t.Errorf("%s: Compile error = %v, want the id-space error", tc.name, err)
		}
	}
	b := NewBuilder(4, 0)
	b.limit = 16
	b.OpenIdx(b.Add(b.Input(0, 1), b.Input(1, 2)))
	if _, err := b.Compile(); err != nil {
		t.Fatalf("recording inside the limit: %v", err)
	}
}
