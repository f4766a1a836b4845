package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/poly"
)

// scaledDigest is the FNV-1a hash of the opened integers of traces, in
// order.
func scaledDigest(traces ...*Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, tr := range traces {
		for _, v := range tr.Scaled {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestNoiseHolderSums: sampleNoise fills one vector per noise holder —
// every party that hosts a client on an MPC engine, the one evaluator on
// the plaintext engine — and each is the sum of its clients' SkellamVec
// draws from an independent family of the same streams, with more
// clients than parties, as many and fewer, on LR- and covariance-length
// vectors. The vectors are read through the booking an unmetered release
// mints (Params.meter with a nil Acct).
func TestNoiseHolderSums(t *testing.T) {
	for _, c := range []struct {
		engine           EngineKind
		parties, clients int
	}{
		{EnginePlain, 0, 5}, {EnginePlain, 0, 120},
		{EngineBGW, 3, 2}, {EngineBGW, 3, 3}, {EngineBGW, 3, 120},
		{EngineBGW, 4, 3}, {EngineBGW, 4, 4}, {EngineBGW, 4, 120},
		{EngineBGW, 10, 7}, {EngineBGW, 10, 10}, {EngineBGW, 10, 120},
	} {
		for _, dims := range []int{21, 300} {
			p := Params{Gamma: 1, Mu: 1.61308e6, NumClients: c.clients, Engine: c.engine, Parties: c.parties, Seed: 5}
			if err := p.normalize(c.clients); err != nil {
				t.Fatal(err)
			}
			_, rngs := rngFamily(p.Seed, p.NumClients)
			r := p.begin(rngs)
			noise := dp.NewNoise(r.holders(), dims)
			r.sampleNoise(noise)
			got := noise.Vectors(p.meter(1, 1))
			holders := 1
			if c.engine.IsMPC() {
				holders = min(c.clients, c.parties)
			}
			want := make([][]int64, holders)
			for h := range want {
				want[h] = make([]int64, dims)
			}
			_, ref := rngFamily(p.Seed, p.NumClients)
			for j, g := range ref {
				for k, z := range g.SkellamVec(dims, p.Mu/float64(p.NumClients)) {
					want[p.partyOf(j)][k] += z
				}
			}
			if len(got) != holders {
				t.Fatalf("%v P=%d n=%d: %d noise vectors, want %d", c.engine, c.parties, c.clients, len(got), holders)
			}
			for h := range want {
				for k := range want[h] {
					if got[h][k] != want[h][k] {
						t.Fatalf("%v P=%d n=%d dims=%d: holder %d entry %d = %d, its clients' draws sum to %d",
							c.engine, c.parties, c.clients, dims, h, k, got[h][k], want[h][k])
					}
				}
			}
		}
	}
}

// TestClientStagesIndependentOfGOMAXPROCS: quantizeByClient and
// sampleNoise split the clients across the cores, and at every core count
// they return exactly what the serial loops return — the quantized
// matrix, every holder vector, and every client's stream left where
// rounding its columns and then drawing its share leave it — for one
// client, fewer clients than workers, and more, on the plaintext
// engine's one holder and the BGW engines' one per party. The noise is
// drawn as a release draws it, started early (drawNoise) and joined only
// after the caller has rounded another matrix from streams of its own on
// every core meanwhile, as an engine computes beside the draw.
func TestClientStagesIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const dims = 40
	x := randMatrix(7, 130, 0.9, 13)
	for _, c := range []struct {
		engine           EngineKind
		parties, clients int
	}{
		{EnginePlain, 0, 1}, {EngineBGW, 4, 1}, {EngineBGW, 4, 3}, {EnginePlain, 0, 12},
		{EngineBGW, 4, 12}, {EngineBGW, 10, 12}, {EnginePlain, 0, 120}, {EngineBGW, 4, 120},
	} {
		p := Params{Gamma: 64, Mu: 1.61308e6, NumClients: c.clients, Engine: c.engine, Parties: c.parties, Seed: 9}
		if err := p.normalize(x.Cols); err != nil {
			t.Fatal(err)
		}
		_, ref := rngFamily(p.Seed, p.NumClients)
		wantQ := make([]int64, x.Rows*x.Cols)
		for j := 0; j < x.Cols; j++ {
			g := ref[p.clientOf(j, x.Cols)]
			for i := 0; i < x.Rows; i++ {
				wantQ[j*x.Rows+i] = g.StochasticRound(p.Gamma * x.At(i, j))
			}
		}
		wantNoise := make([][]int64, 1)
		if c.engine.IsMPC() {
			wantNoise = make([][]int64, min(c.clients, c.parties))
		}
		for h := range wantNoise {
			wantNoise[h] = make([]int64, dims)
		}
		for j, g := range ref {
			for k, z := range g.SkellamVec(dims, p.Mu/float64(p.NumClients)) {
				wantNoise[p.partyOf(j)][k] += z
			}
		}
		wantNext := make([]uint64, len(ref))
		for j, g := range ref {
			wantNext[j] = g.Uint64()
		}

		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("%v P=%d n=%d GOMAXPROCS=%d", c.engine, c.parties, c.clients, procs)
			_, rngs := rngFamily(p.Seed, p.NumClients)
			q := quantizeByClient(x, &p, rngs)
			if !slices.Equal(q.data, wantQ) {
				t.Errorf("%s: quantized matrix differs from the serial loop's", name)
			}
			r := p.begin(rngs)
			draw := r.drawNoise(dims)
			_, others := rngFamily(p.Seed+1, p.NumClients)
			quantizeByClient(x, &p, others)
			draw.booking = p.meter(1, 1)
			noise := draw.vectors()
			if r.tr.NoiseCompute <= 0 {
				t.Errorf("%s: the join booked no noise time", name)
			}
			if len(noise) != len(wantNoise) {
				t.Fatalf("%s: %d noise vectors, want %d", name, len(noise), len(wantNoise))
			}
			for h := range noise {
				if !slices.Equal(noise[h], wantNoise[h]) {
					t.Errorf("%s: holder %d's vector differs from its clients' serial draws", name, h)
				}
			}
			for j, g := range rngs {
				if got := g.Uint64(); got != wantNext[j] {
					t.Errorf("%s: client %d's stream continues with %#x, serially %#x", name, j, got, wantNext[j])
				}
			}
		}
	}
}

// TestSampleNoiseAllocatesOnlyItsVectors: each worker's sampler, its
// acceptance table included, lives on the worker's stack, so what a
// release's draw — started early, then joined (drawNoise) — allocates
// besides the holder vectors is the draw's and the fan-out's bookkeeping:
// the count is the same at 12 and 120 clients and at an LR step's length
// and a covariance triangle's, and the heap bytes stay below the vectors'
// (as the allocator rounds them) plus 4 KB, which one 16 KB table on the
// heap would exceed (randx's TestAddSkellamAllocatesNothing holds the
// sampler itself to zero). GOMAXPROCS is pinned at 4 so that the four
// holders run on four workers, all of them goroutines beside the caller,
// whatever the machine.
func TestSampleNoiseAllocatesOnlyItsVectors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fillGoroutineFreeLists()
	const parties, runs = 4, 10
	var count []uint64
	for _, clients := range []int{12, 120} {
		for _, dims := range []int{50, 7260} {
			p := Params{Gamma: 1, Mu: 1.61308e6, NumClients: clients, Engine: EngineBGW, Parties: parties, Seed: 5}
			if err := p.normalize(p.NumClients); err != nil {
				t.Fatal(err)
			}
			_, rngs := rngFamily(p.Seed, p.NumClients)
			r := p.begin(rngs)
			r.drawNoise(dims).join()
			allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					r.drawNoise(dims).join()
				}
				runtime.ReadMemStats(&after)
				allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
				bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
			}
			if limit := vectorBytes(parties*dims) + 4096; bytes >= limit {
				t.Errorf("drawNoise(%d) over %d clients: %d heap bytes, want below %d", dims, clients, bytes, limit)
			}
			count = append(count, allocs)
		}
	}
	for _, a := range count[1:] {
		if a != count[0] {
			t.Errorf("drawNoise allocations at (12, 50), (12, 7260), (120, 50), (120, 7260): %v, want one count", count)
			break
		}
	}
}

// fillGoroutineFreeLists parks a thousand goroutines at once and lets
// them exit. A worker that exits on another processor than the one
// that started it leaves its goroutine descriptor on that processor's
// free list, so until those lists overflow into the scheduler's global
// one the caller allocates a fresh descriptor per worker it starts — a
// count that depends on how a loaded machine schedules, not on the
// code under test.
func fillGoroutineFreeLists() {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for range 1024 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
		}()
	}
	close(start)
	wg.Wait()
}

// vectorSink keeps vectorBytes's allocation live.
var vectorSink []int64

// vectorBytes is the heap a make([]int64, n) takes: n·8 rounded up to the
// allocator's size class or page.
func vectorBytes(n int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vectorSink = make([]int64, n)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// BenchmarkSampleNoise draws a whole cov_mono release's noise the way its
// MPC covariance does: 120 clients' Sk(μ/n) shares on the 7 260 entries
// of the n = 120 triangle, onto the vectors of P = 4 holders split across
// GOMAXPROCS workers. ns/op ÷ (120 · 7260) is the per-entry wall-clock
// cost; with -cpu 1 it is randx's BenchmarkSkellamSamplerShared.
func BenchmarkSampleNoise(b *testing.B) {
	p := Params{Gamma: 1, Mu: 1.61308e6, NumClients: 120, Engine: EngineBGW, Parties: 4, Seed: 5}
	if err := p.normalize(p.NumClients); err != nil {
		b.Fatal(err)
	}
	_, rngs := rngFamily(p.Seed, p.NumClients)
	r := p.begin(rngs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noiseSink = dp.NewNoise(r.holders(), 7260)
		r.sampleNoise(noiseSink)
	}
}

// noiseSink keeps BenchmarkSampleNoise's vectors live.
var noiseSink dp.Noise

// goldenScaled are scaledDigest of every release shape below, recorded at
// 991df84, before a party drew its clients' noise onto one vector. Every
// engine must open the same integers; the noise shares are Sk(μ/n) on
// both sides of the inversion / PTRS switch, with more clients than
// parties and fewer.
var goldenScaled = map[string]uint64{
	"covariance/hosted":             0xa8744a09265cd623,
	"covariance/hosted/stream":      0xa8744a09265cd623,
	"covariance/few-clients":        0xee9eaddf5aabed17,
	"covariance/few-clients/stream": 0x4acb9bc0ce8c9fc6,
	"polysum/hosted":                0x92a4beabb7d8882e,
	"polysum/few-clients":           0x7d1b4f645ab87954,
	"lr":                            0xf5035d9583313f4f,
	"lr3":                           0x142d327a885eea93,
}

// TestGoldenScaledDigests pins Trace.Scaled of the covariance (one-shot
// and streamed), the polynomial sum and both gradient steps on every
// engine: how a party's clients' draws reach the engine may change, the
// draws and the opened integers may not.
func TestGoldenScaledDigests(t *testing.T) {
	check := func(name string, got uint64) {
		t.Helper()
		if want, ok := goldenScaled[name]; !ok || got != want {
			t.Errorf("%s: digest %#x, recorded %#x", name, got, want)
		}
	}
	x := randMatrix(30, 24, 0.2, 5)
	covShapes := []struct {
		name string
		p    Params
	}{
		{"covariance/hosted", Params{Gamma: 64, Mu: 4e5, Seed: 11}},
		{"covariance/few-clients", Params{Gamma: 64, Mu: 60, NumClients: 3, Seed: 12}},
	}
	for _, s := range covShapes {
		for _, e := range allEngines() {
			p := s.p
			p.Engine, p.Parties = e.kind, e.parties
			_, tr, err := Covariance(x, p)
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, e.name, err)
			}
			check(s.name, scaledDigest(tr))
		}
		st, err := NewCovarianceStream(x.Cols, s.p)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range [][2]int{{0, 10}, {10, 30}} {
			batch := linalg.NewMatrix(span[1]-span[0], x.Cols)
			copy(batch.Data, x.Data[span[0]*x.Cols:span[1]*x.Cols])
			if err := st.Add(batch); err != nil {
				t.Fatal(err)
			}
		}
		_, tr, err := st.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		check(s.name+"/stream", scaledDigest(tr))
	}

	px := randMatrix(15, 3, 0.8, 21)
	f := poly.MustMulti(
		poly.MustPolynomial(3,
			poly.Monomial{Coef: 1.1, Exps: []int{1, 1, 0}},
			poly.Monomial{Coef: -0.3, Exps: []int{0, 0, 2}},
			poly.Monomial{Coef: 0.7, Exps: []int{1, 1, 1}},
			poly.Monomial{Coef: 0.05, Exps: []int{0, 1, 0}},
		),
		poly.MustPolynomial(3, poly.Monomial{Coef: 1, Exps: []int{2, 0, 0}}),
	)
	polyShapes := []struct {
		name    string
		p       Params
		parties int
	}{
		{"polysum/hosted", Params{Gamma: 32, Mu: 3e3, NumClients: 7, Seed: 99}, 3},
		{"polysum/few-clients", Params{Gamma: 32, Mu: 40, NumClients: 2, Seed: 98}, 4},
	}
	for _, s := range polyShapes {
		for _, e := range allEngines() {
			p := s.p
			p.Engine = e.kind
			if e.kind.IsMPC() {
				p.Parties = s.parties
			}
			_, tr, err := EvaluatePolynomialSum(f, px, p)
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, e.name, err)
			}
			check(s.name, scaledDigest(tr))
		}
	}

	lx, ly := lrTestData(40, 5, 4)
	w := []float64{0.3, -0.2, 0.1, 0.05, -0.4}
	batch := []int{1, 2, 3, 5, 8, 13, 21, 34}
	for _, order3 := range []bool{false, true} {
		name, p := "lr", Params{Gamma: 18, Mu: 1e6, Seed: 7}
		if order3 {
			name, p.Gamma = "lr3", 8
		}
		for _, e := range allEngines() {
			p.Engine, p.Parties = e.kind, e.parties
			proto, err := newGradientProtocol(order3, lx, ly, p)
			if err != nil {
				t.Fatalf("%s %s: %v", name, e.name, err)
			}
			var trs []*Trace
			for _, b := range [][]int{batch, nil} {
				_, tr, err := proto.GradientSum(w, b)
				if err != nil {
					proto.Close()
					t.Fatalf("%s %s: %v", name, e.name, err)
				}
				trs = append(trs, tr)
			}
			proto.Close()
			check(name, scaledDigest(trs...))
		}
	}
}
