package bgw

import (
	"bytes"
	"sync"
	"testing"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// refWire is the per-element reference the vector sharing is pinned to:
// it plays all P parties with one shamir.Share call per secret, drawing
// from twins of the engines' party streams, and writes down every frame
// each ordered link carries. It shares no code with the engines beyond
// shamir.Share and the scalar field helpers.
type refWire struct {
	p, t    int
	rngs    []*randx.RNG
	weights []field.Elem
	pair    [][]*randx.RNG // pair[i][j]: party i's end of the mask stream it shares with j
	frames  [][][][]byte   // frames[from][to]: payloads in send order
}

func newRefWire(cfg Config) *refWire {
	r := &refWire{p: cfg.Parties, t: cfg.Threshold,
		weights: shamir.LagrangeAtZero(shamir.PartyPoints(cfg.Parties))}
	root := randx.New(cfg.Seed) // the engines' seed derivation
	for i := 0; i < r.p; i++ {
		r.rngs = append(r.rngs, root.Fork())
		r.pair = append(r.pair, make([]*randx.RNG, r.p))
	}
	for i := 0; i < r.p; i++ {
		for j := i + 1; j < r.p; j++ {
			key := root.Uint64()
			r.pair[i][j], r.pair[j][i] = randx.New(key), randx.New(key)
		}
	}
	r.frames = linkFrames(r.p)
	return r
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

// inputVec returns the party-major shares of vs, one Share per element.
func (r *refWire) inputVec(owner int, vs []int64) [][]field.Elem {
	shares := r.rows(len(vs))
	for k, v := range vs {
		for i, s := range shamir.Share(field.FromInt64(v), r.t, r.p, r.rngs[owner]) {
			shares[i][k] = s
		}
	}
	for j := 0; j < r.p; j++ {
		if j != owner {
			r.send(owner, j, shares[j])
		}
	}
	return shares
}

// dotBatch reshares every pair's local inner product, pair by pair from
// each party's stream, and returns the party-major degree-t shares.
func (r *refWire) dotBatch(pairs [][2][][]field.Elem) [][]field.Elem {
	out := r.rows(len(pairs))
	for i := 0; i < r.p; i++ {
		sub := r.rows(len(pairs))
		for m, pr := range pairs {
			var high field.Elem
			for k := range pr[0][i] {
				high = field.Add(high, field.Mul(pr[0][i][k], pr[1][i][k]))
			}
			for j, s := range shamir.Share(high, r.t, r.p, r.rngs[i]) {
				sub[j][m] = s
				out[j][m] = field.Add(out[j][m], field.Mul(r.weights[i], s))
			}
		}
		for j := 0; j < r.p; j++ {
			if j != i {
				r.send(i, j, sub[j])
			}
		}
	}
	return out
}

// open has every party broadcast its additive shares λ_i·s_i under the
// telescoping mask: peer by peer, element by element, the pair's stream
// added by the smaller index and subtracted by the larger.
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
		for j := 0; j < r.p; j++ {
			if j != i {
				r.send(i, j, row)
			}
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

// TestVectorSharingPinsSharesAndWire runs InputVec, InputVec, DotBatch,
// OpenBatch under both drivers and on the per-element reference: the
// inline parties must hold exactly the reference's shares after the
// input and after the resharing, and the parties behind a mesh must put
// exactly the reference's bytes on every link, frame for frame.
func TestVectorSharingPinsSharesAndWire(t *testing.T) {
	u := make([]int64, 37)
	v := make([]int64, 37)
	for k := range u {
		u[k] = int64(k*k) - 400
		v[k] = 1<<20 - int64(7*k)
	}
	for _, cfg := range []Config{
		{Parties: 4, Threshold: 1, Seed: 0xfeed},
		{Parties: 10, Threshold: 4, Seed: 0xfeed},
	} {
		ref := newRefWire(cfg)
		ru, rv := ref.inputVec(0, u), ref.inputVec(cfg.Parties-1, v)
		rd := ref.dotBatch([][2][][]field.Elem{{ru, rv}, {ru, ru}, {rv, rv}})
		ref.open(rd)

		program := func(ev Evaluator) (Vec, Vec, []Val, []int64) {
			a, b := ev.InputVec(0, u), ev.InputVec(cfg.Parties-1, v)
			dots := ev.DotBatch([]VecPair{{A: a, B: b}, {A: a, B: a}, {A: b, B: b}}, 0)
			return a, b, dots, ev.OpenBatch(dots)
		}

		mono, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b, dots, want := program(mono)
		for i, pa := range mono.parties {
			ua, ub := pa.vc[mono.sharedVec(a).ref], pa.vc[mono.sharedVec(b).ref]
			for k := range u {
				if ua[k] != ru[i][k] || ub[k] != rv[i][k] {
					t.Fatalf("P=%d: InputVec share of element %d at party %d differs from per-element Share", cfg.Parties, k, i)
				}
			}
			for m, d := range dots {
				if pa.sc[mono.shared(d).ref] != rd[i][m] {
					t.Fatalf("P=%d: reshared dot %d at party %d differs from per-element Share", cfg.Parties, m, i)
				}
			}
		}

		rec := &recMesh{Mesh: transport.NewChanMesh(cfg.Parties), frames: linkFrames(cfg.Parties)}
		actor, err := NewActorEngine(cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, got := program(actor)
		if err := actor.Close(); err != nil {
			t.Fatal(err)
		}
		if !equalInt64(got, want) {
			t.Fatalf("P=%d: actor opened %v, monolithic %v", cfg.Parties, got, want)
		}
		for i := range ref.frames {
			for j := range ref.frames[i] {
				if len(rec.frames[i][j]) != len(ref.frames[i][j]) {
					t.Fatalf("P=%d link %d→%d: %d frames, reference has %d", cfg.Parties, i, j, len(rec.frames[i][j]), len(ref.frames[i][j]))
				}
				for f, wantFrame := range ref.frames[i][j] {
					if !bytes.Equal(rec.frames[i][j][f], wantFrame) {
						t.Fatalf("P=%d link %d→%d: frame %d differs from per-element sharing", cfg.Parties, i, j, f)
					}
				}
			}
		}
	}
}
