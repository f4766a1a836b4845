package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

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

// TestNoiseHolderSums: sampleNoise returns one vector per noise holder —
// every party that hosts a client on an MPC engine, the one evaluator on
// the plaintext engine — and each is the sum of its clients' SkellamVec
// draws from an independent family of the same streams, with more
// clients than parties, as many and fewer, on LR- and covariance-length
// vectors.
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
			got := p.begin(rngs).sampleNoise(dims)
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

// TestSampleNoiseAllocatesOnlyItsVectors: the release's one sampler, its
// acceptance table included, lives on sampleNoise's stack; the holder
// vectors and the slice of them are all it allocates, at an LR step's
// length and at a covariance triangle's (randx's
// TestAddSkellamAllocatesNothing holds the sampler itself to zero).
func TestSampleNoiseAllocatesOnlyItsVectors(t *testing.T) {
	for _, dims := range []int{50, 7260} {
		p := Params{Gamma: 1, Mu: 1.61308e6, NumClients: 12, Engine: EngineBGW, Parties: 4, Seed: 5}
		if err := p.normalize(p.NumClients); err != nil {
			t.Fatal(err)
		}
		_, rngs := rngFamily(p.Seed, p.NumClients)
		r := p.begin(rngs)
		if a := testing.AllocsPerRun(3, func() { r.sampleNoise(dims) }); a > 2 {
			t.Errorf("sampleNoise(%d): %v allocations, want at most 2", dims, a)
		}
	}
}

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
