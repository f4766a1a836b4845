package bgw

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// refWire is the per-element reference the vector sharing is pinned to:
// it plays all P parties, dealing one secret at a time — each seeded
// peer's share is the next draw of its end of the dealer's stream, the
// dealer interpolates the others from its own ends' draws — and writes
// down every frame each ordered link carries. It shares no code with the
// engines beyond the scalar field helpers and lagrangeAt.
type refWire struct {
	p, t    int
	weights []field.Elem
	pair    [][]*randx.RNG // pair[i][j]: party i's end of the mask stream it shares with j
	// dealTo[o][j]: dealer o's end of its stream toward seeded peer j;
	// dealFrom[j][o]: j's end of it.
	dealTo, dealFrom [][]*randx.RNG
	frames           [][][][]byte // frames[from][to]: payloads in send order
}

func newRefWire(cfg Config) *refWire {
	r := &refWire{p: cfg.Parties, t: cfg.Threshold,
		weights: shamir.LagrangeAtZero(shamir.PartyPoints(cfg.Parties))}
	streams := func() [][]*randx.RNG {
		out := make([][]*randx.RNG, r.p)
		for i := range out {
			out[i] = make([]*randx.RNG, r.p)
		}
		return out
	}
	r.pair, r.dealTo, r.dealFrom = streams(), streams(), streams()
	root := randx.New(cfg.Seed) // the engines' key derivation: masks, then dealings
	for i := 0; i < r.p; i++ {
		for j := i + 1; j < r.p; j++ {
			key := root.Uint64()
			r.pair[i][j], r.pair[j][i] = randx.New(key), randx.New(key)
		}
	}
	for o := 0; o < r.p; o++ {
		for m := 1; m <= r.t; m++ {
			j := (o + m) % r.p
			key := root.Uint64()
			r.dealTo[o][j], r.dealFrom[j][o] = randx.New(key), randx.New(key)
		}
	}
	r.frames = linkFrames(r.p)
	return r
}

// share deals one secret from dealer o and returns every party's share.
func (r *refWire) share(o int, secret field.Elem) []field.Elem {
	points := shamir.PartyPoints(r.p)
	nodes, vals := []field.Elem{0}, []field.Elem{secret}
	shares := make([]field.Elem, r.p)
	seeded := make([]bool, r.p)
	for m := 1; m <= r.t; m++ {
		j := (o + m) % r.p
		nodes, vals = append(nodes, points[j]), append(vals, field.Rand(r.dealTo[o][j]))
		shares[j], seeded[j] = field.Rand(r.dealFrom[j][o]), true
	}
	for i := range shares {
		if !seeded[i] {
			for n, w := range lagrangeAt(nodes, points[i]) {
				shares[i] = field.Add(shares[i], field.Mul(w, vals[n]))
			}
		}
	}
	return shares
}

// sendUnseeded sends dealer o's row to every peer that does not draw it.
func (r *refWire) sendUnseeded(o int, rows [][]field.Elem) {
	for j := 0; j < r.p; j++ {
		if d := (j - o + r.p) % r.p; d > r.t {
			r.send(o, j, rows[j])
		}
	}
}

// linkFrames returns an empty frame log for every ordered link.
func linkFrames(p int) [][][][]byte {
	frames := make([][][][]byte, p)
	for i := range frames {
		frames[i] = make([][][]byte, p)
	}
	return frames
}

func (r *refWire) rows(n int) [][]field.Elem {
	out := make([][]field.Elem, r.p)
	for i := range out {
		out[i] = make([]field.Elem, n)
	}
	return out
}

func (r *refWire) send(from, to int, elems []field.Elem) {
	buf := make([]byte, 8*len(elems))
	for k, e := range elems {
		putElem(buf[8*k:], e)
	}
	r.frames[from][to] = append(r.frames[from][to], buf)
}

// inputVec returns the party-major shares of vs, dealt element by
// element.
func (r *refWire) inputVec(owner int, vs []int64) [][]field.Elem {
	shares := r.rows(len(vs))
	for k, v := range vs {
		for i, s := range r.share(owner, field.FromInt64(v)) {
			shares[i][k] = s
		}
	}
	r.sendUnseeded(owner, shares)
	return shares
}

// dotBatch reshares every pair's local inner product, pair by pair, and
// returns the party-major degree-t shares.
func (r *refWire) dotBatch(pairs [][2][][]field.Elem) [][]field.Elem {
	out := r.rows(len(pairs))
	for i := 0; i < r.p; i++ {
		sub := r.rows(len(pairs))
		for m, pr := range pairs {
			var high field.Elem
			for k := range pr[0][i] {
				high = field.Add(high, field.Mul(pr[0][i][k], pr[1][i][k]))
			}
			for j, s := range r.share(i, high) {
				sub[j][m] = s
				out[j][m] = field.Add(out[j][m], field.Mul(r.weights[i], s))
			}
		}
		r.sendUnseeded(i, sub)
	}
	return out
}

// open has every party but 0 send party 0, the one that decodes, its
// additive shares λ_i·s_i under the telescoping mask: peer by peer,
// element by element, the pair's stream added by the smaller index and
// subtracted by the larger. Party 0 draws its own row's masks and sends
// nothing.
func (r *refWire) open(shares [][]field.Elem) {
	for i := 0; i < r.p; i++ {
		row := make([]field.Elem, len(shares[i]))
		for k, s := range shares[i] {
			row[k] = field.Mul(r.weights[i], s)
		}
		for j := 0; j < r.p; j++ {
			for k := range row {
				switch {
				case i < j:
					row[k] = field.Add(row[k], field.Rand(r.pair[i][j]))
				case i > j:
					row[k] = field.Sub(row[k], field.Rand(r.pair[i][j]))
				}
			}
		}
		if i != 0 {
			r.send(i, 0, row)
		}
	}
}

// recMesh records a copy of every payload handed to Send/SendN.
type recMesh struct {
	transport.Mesh
	mu     sync.Mutex
	frames [][][][]byte
}

type recConn struct {
	transport.PartyConn
	m *recMesh
}

func (m *recMesh) Conn(party int) transport.PartyConn {
	return &recConn{PartyConn: m.Mesh.Conn(party), m: m}
}

func (c *recConn) Send(to int, payload []byte) error { return c.SendN(to, payload, 1) }

func (c *recConn) SendN(to int, payload []byte, msgs int) error {
	c.m.mu.Lock()
	c.m.frames[c.ID()][to] = append(c.m.frames[c.ID()][to], bytes.Clone(payload))
	c.m.mu.Unlock()
	return c.PartyConn.SendN(to, payload, msgs)
}

// nextDraws returns the next Uint64 of every party's end of each mask
// stream and of each dealing stream, toward and from, in party order.
func nextDraws(pair, dealTo, dealFrom [][]*randx.RNG) []uint64 {
	var out []uint64
	for i := range pair {
		for _, ends := range [][]*randx.RNG{pair[i], dealTo[i], dealFrom[i]} {
			for _, g := range ends {
				if g != nil {
					out = append(out, g.Uint64())
				}
			}
		}
	}
	return out
}

// partyDraws is nextDraws over an engine's parties; the engine must be
// closed, so that its party goroutines have ended.
func partyDraws(e *Engine) []uint64 {
	var pair, dealTo, dealFrom [][]*randx.RNG
	for _, pa := range e.parties {
		pair, dealTo, dealFrom = append(pair, pa.pair), append(dealTo, pa.dealTo), append(dealFrom, pa.dealFrom)
	}
	return nextDraws(pair, dealTo, dealFrom)
}

// TestVectorSharingPinsSharesAndWire runs one input round of three
// vectors — party 0 deals two of them, P−1 the one between — then
// DotBatch and OpenBatch, on the engine and on the per-element
// reference, which deals the vectors one after another. The parties must
// hold exactly the reference's shares after the round and after the
// resharing, put exactly the reference's bytes on every link, frame for
// frame — none on a link whose receiver draws the row — and open the
// plain dot products, and every stream must continue where the
// reference's does.
func TestVectorSharingPinsSharesAndWire(t *testing.T) {
	u := make([]int64, 37)
	v := make([]int64, 37)
	w := make([]int64, 37)
	for k := range u {
		u[k] = int64(k*k) - 400
		v[k] = 1<<20 - int64(7*k)
		w[k] = int64(k) - 1<<30
	}
	for _, cfg := range []Config{
		{Parties: 4, Threshold: 1, Seed: 0xfeed},
		{Parties: 10, Threshold: 4, Seed: 0xfeed},
	} {
		last := cfg.Parties - 1
		ref := newRefWire(cfg)
		ru, rv, rw := ref.inputVec(0, u), ref.inputVec(last, v), ref.inputVec(0, w)
		rd := ref.dotBatch([][2][][]field.Elem{{ru, rv}, {ru, rw}, {rv, rv}})
		ref.open(rd)
		wantDraws := nextDraws(ref.pair, ref.dealTo, ref.dealFrom)

		program := func(e *Engine) ([]Vec, []Val, []int64) {
			ins := []Vec{e.InputVec(0, u), e.InputVec(last, v), e.InputVec(0, w)}
			if len(e.round) != len(ins) {
				t.Fatalf("P=%d: %d vectors in the open round, want %d", cfg.Parties, len(e.round), len(ins))
			}
			dots := e.DotBatch([]VecPair{{A: ins[0], B: ins[1]}, {A: ins[0], B: ins[2]}, {A: ins[1], B: ins[1]}}, 0)
			return ins, dots, e.OpenBatch(dots)
		}

		rec := &recMesh{Mesh: transport.NewChanMesh(cfg.Parties), frames: linkFrames(cfg.Parties)}
		e, err := NewActorEngine(cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		ins, dots, got := program(e)
		// OpenBatch synchronised with the parties: their slots are readable.
		for i, pa := range e.parties {
			for n, rs := range [][][]field.Elem{ru, rv, rw} {
				got := pa.vc[e.sharedVec(ins[n]).ref]
				for k := range u {
					if got[k] != rs[i][k] {
						t.Fatalf("P=%d: share of element %d of input %d at party %d differs from the per-element dealing", cfg.Parties, k, n, i)
					}
				}
			}
			for m, d := range dots {
				if pa.sc[e.shared(d).ref] != rd[i][m] {
					t.Fatalf("P=%d: reshared dot %d at party %d differs from the per-element dealing", cfg.Parties, m, i)
				}
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		var want [3]int64
		for k := range u {
			want[0] += u[k] * v[k]
			want[1] += u[k] * w[k]
			want[2] += v[k] * v[k]
		}
		if !equalInt64(got, want[:]) {
			t.Fatalf("P=%d: opened %v, want %v", cfg.Parties, got, want)
		}
		if got := partyDraws(e); !slices.Equal(got, wantDraws) {
			t.Fatalf("P=%d: the parties' streams continue with %x, the reference's with %x", cfg.Parties, got, wantDraws)
		}
		for i := range ref.frames {
			for j := range ref.frames[i] {
				if len(rec.frames[i][j]) != len(ref.frames[i][j]) {
					t.Fatalf("P=%d link %d→%d: %d frames, reference has %d", cfg.Parties, i, j, len(rec.frames[i][j]), len(ref.frames[i][j]))
				}
				for f, wantFrame := range ref.frames[i][j] {
					if !bytes.Equal(rec.frames[i][j][f], wantFrame) {
						t.Fatalf("P=%d link %d→%d: frame %d differs from the per-element dealing", cfg.Parties, i, j, f)
					}
				}
			}
		}
	}
}
