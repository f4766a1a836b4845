package chunk

import (
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestRunCoversTheRangeOnce: Run hands out [0, n) exactly once, in
// min(n, k) non-empty contiguous chunks whose bounds are c·n/k′.
func TestRunCoversTheRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, k := range []int{1, 2, 3, 16} {
			var mu sync.Mutex
			var got [][2]int
			hits := make([]int, n)
			Run(n, k, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				got = append(got, [2]int{lo, hi})
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			sort.Slice(got, func(a, b int) bool { return got[a][0] < got[b][0] })
			chunks := min(n, k)
			var want [][2]int
			for c := 0; c < chunks; c++ {
				want = append(want, [2]int{c * n / chunks, (c + 1) * n / chunks})
			}
			if !slices.Equal(got, want) {
				t.Errorf("n=%d k=%d: chunks %v, want %v", n, k, got, want)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d k=%d: index %d visited %d times", n, k, i, h)
				}
			}
			for _, c := range got {
				if c[0] >= c[1] {
					t.Errorf("n=%d k=%d: empty chunk %v", n, k, c)
				}
			}
		}
	}
}

// TestRunLastChunkOnCaller: the last chunk runs on the calling
// goroutine — its stack reaches back into this test — and every other
// chunk on a goroutine of its own.
func TestRunLastChunkOnCaller(t *testing.T) {
	const n = 12
	var mu sync.Mutex
	onCaller := map[int]bool{}
	Run(n, 3, func(lo, hi int) {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		here := false
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".TestRunLastChunkOnCaller") {
				here = true
			}
			if !more {
				break
			}
		}
		mu.Lock()
		onCaller[lo] = here
		mu.Unlock()
	})
	if want := map[int]bool{0: false, 4: false, 8: true}; !maps.Equal(onCaller, want) {
		t.Fatalf("chunks on the caller's goroutine %v, want %v", onCaller, want)
	}
}

// TestRunOneChunkAllocatesNothing: one chunk is a plain call — what the
// client stages run on one core.
func TestRunOneChunkAllocatesNothing(t *testing.T) {
	sum := 0
	fn := func(lo, hi int) { sum += hi - lo }
	if allocs := testing.AllocsPerRun(100, func() { Run(100, 1, fn) }); allocs != 0 {
		t.Fatalf("one chunk cost %.0f allocations, want 0", allocs)
	}
	if sum != 101*100 {
		t.Fatalf("one chunk covered %d indices over 101 runs, want %d", sum, 101*100)
	}
}

// TestArenaCarves: two small runs are neighbours in one chunk, each
// full to its capacity, so appending to one never reaches the other;
// Put and Clone carve what they are handed.
func TestArenaCarves(t *testing.T) {
	var a Arena[int64]
	x, y := a.Take(3), a.Take(2)
	if len(x) != 3 || cap(x) != 3 || len(y) != 2 || cap(y) != 2 {
		t.Fatalf("len/cap %d/%d and %d/%d, want 3/3 and 2/2", len(x), cap(x), len(y), cap(y))
	}
	if unsafe.Pointer(&y[0]) != unsafe.Add(unsafe.Pointer(&x[0]), 3*8) {
		t.Fatal("two small takes did not come from one chunk")
	}
	y[0], y[1] = 7, 8
	_ = append(x, 1, 2)
	if y[0] != 7 || y[1] != 8 {
		t.Fatalf("appending to one slice changed its neighbour: %v", y)
	}
	p := a.Put(42)
	if *p != 42 {
		t.Fatalf("Put stored %d", *p)
	}
	src := []int64{4, 5, 6}
	c := a.Clone(src)
	src[0] = 0
	if !slices.Equal(c, []int64{4, 5, 6}) || cap(c) != 3 {
		t.Fatalf("Clone returned %v (cap %d)", c, cap(c))
	}
}

// TestArenaChunksGrow: chunks start at 16 elements and double up to
// 32 KB of T, and a run longer than a quarter of that gets an array of
// its own without disturbing the current chunk.
func TestArenaChunksGrow(t *testing.T) {
	var a Arena[int64]
	most := a.Most()
	if most != (32<<10)/8 {
		t.Fatalf("Most() = %d, want %d", most, (32<<10)/8)
	}
	var sizes []int
	for len(sizes) < 12 {
		a.Take(1)
		if len(sizes) == 0 || sizes[len(sizes)-1] != a.size {
			sizes = append(sizes, a.size)
		}
		if a.size == most && len(a.free) == 0 {
			break
		}
	}
	want := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	if !slices.Equal(sizes, want) {
		t.Fatalf("chunk lengths %v, want %v", sizes, want)
	}
	a.Take(1) // a fresh chunk at the cap
	if a.size != most {
		t.Fatalf("chunk after the cap has length %d, want %d", a.size, most)
	}

	free := len(a.free)
	big := a.Take(most/4 + 1)
	if len(big) != most/4+1 || cap(big) != len(big) {
		t.Fatalf("a long run has len %d cap %d", len(big), cap(big))
	}
	if len(a.free) != free {
		t.Fatal("a long run was carved from the chunk")
	}

	var tiny Arena[[64 << 10]byte]
	if got := tiny.Most(); got != first {
		t.Fatalf("an arena of 64 KB values holds chunks of %d, want %d", got, first)
	}
}
