package main

import (
	"testing"
	"time"

	"sqm"
	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/randx"
	"sqm/internal/transport"
)

// randomPlan records a random circuit over the gate surface the
// decorator times: scalar and vector inputs, every local gate, scalar,
// fused and vector multiplications, scalar and vector openings.
func randomPlan(t *testing.T, parties int, g *randx.RNG) *circuit.Plan {
	t.Helper()
	b := circuit.NewBuilder(parties, 0)
	small := func() int64 { return int64(g.IntN(201) - 100) }
	vals := []bgw.Val{b.Zero()}
	for i, n := 0, 3+g.IntN(4); i < n; i++ {
		vals = append(vals, b.Input(g.IntN(parties), small()))
	}
	vecLen := 2 + g.IntN(4)
	var vecs []bgw.Vec
	for i := 0; i < 3; i++ {
		vs := make([]int64, vecLen)
		for k := range vs {
			vs[k] = small()
		}
		vecs = append(vecs, b.InputVec(g.IntN(parties), vs))
	}
	pick := func() bgw.Val { return vals[g.IntN(len(vals))] }
	pickVec := func() bgw.Vec { return vecs[g.IntN(len(vecs))] }
	for i, ops := 0, 10+g.IntN(20); i < ops; i++ {
		switch g.IntN(9) {
		case 0:
			vals = append(vals, b.Add(pick(), pick()))
		case 1:
			vals = append(vals, b.Sub(pick(), pick()))
		case 2:
			vals = append(vals, b.AddConst(pick(), small()))
		case 3:
			vals = append(vals, b.MulConst(pick(), small()%8))
		case 4:
			vals = append(vals, b.Mul(pick(), b.Input(g.IntN(parties), small())))
		case 5:
			as, bs := []bgw.Val{pick(), pick()}, []bgw.Val{b.Input(0, small()), b.Input(1, small())}
			vals = append(vals, b.InnerProduct(as, bs))
		case 6:
			vals = append(vals, b.Dot(pickVec(), vecs[0]))
		case 7:
			vals = append(vals, b.At(pickVec(), g.IntN(vecLen)))
		case 8:
			vecs = append(vecs, b.AddVec(pickVec(), pickVec()))
		}
	}
	for i := 0; i < 3; i++ {
		b.OpenIdx(pick())
	}
	b.OpenVecIdx(pickVec())
	plan, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// runPlan executes plan on a fresh engine of the given kind, decorated
// or bare, and returns what it opened and what it counted.
func runPlan(t *testing.T, plan *circuit.Plan, kind sqm.EngineKind, parties int, decorate bool) ([]int64, []int64, bgw.Stats) {
	t.Helper()
	cfg := bgw.Config{Parties: parties, Seed: 7}
	var eng bgw.Evaluator
	var mesh transport.Mesh
	switch kind {
	case sqm.EngineBGW:
		mono, err := bgw.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng = bgw.Eval(mono)
	case sqm.EngineActorBGW:
		mesh = transport.NewChanMesh(parties)
	case sqm.EngineActorBGWNet:
		tcp, err := transport.NewTCPMesh(parties)
		if err != nil {
			t.Fatal(err)
		}
		mesh = tcp
	}
	var timed *timedMesh
	if mesh != nil {
		if decorate {
			timed = newTimedMesh(mesh)
			mesh = timed
		}
		actor, err := bgw.NewActorEngine(cfg, mesh)
		if err != nil {
			t.Fatal(err)
		}
		eng = actor
	}
	defer eng.Close()
	rec := newRecorder(parties)
	var te *timedEvaluator
	if decorate {
		te = &timedEvaluator{Evaluator: eng, rec: rec, mesh: timed}
		eng = te
	}
	root := rec.begin("test")
	res, err := plan.Execute(eng, circuit.Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if te != nil {
		te.flush()
	}
	rec.end(root)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	opened := make([]int64, plan.Opens())
	for i := range opened {
		opened[i] = res.Opened(i)
	}
	if decorate {
		names := make(map[string]bool)
		for _, s := range rec.spans {
			names[s.Name] = true
			if s.End < s.Start {
				t.Errorf("span %s ends before it starts", s.Name)
			}
		}
		for _, want := range classSpan {
			if !names[want] {
				t.Errorf("decorated run on %s recorded no %s span", kind, want)
			}
		}
		if timed != nil && !names["transport.send"] {
			t.Errorf("decorated run on %s recorded no transport spans", kind)
		}
	}
	return opened, res.OpenedVec(0), eng.Stats()
}

// TestDecoratorsAreTransparent pins the contract the per-layer numbers
// rest on: with and without timedEvaluator and timedMesh a plan opens
// the same values and counts the same rounds, frames, messages, bytes
// and field operations, on all three engines.
func TestDecoratorsAreTransparent(t *testing.T) {
	const parties = 4
	for _, kind := range []sqm.EngineKind{sqm.EngineBGW, sqm.EngineActorBGW, sqm.EngineActorBGWNet} {
		t.Run(kind.String(), func(t *testing.T) {
			g := randx.New(uint64(kind) + 11)
			for trial := 0; trial < 5; trial++ {
				plan := randomPlan(t, parties, g)
				want, err := plan.Plain(circuit.Bindings{})
				if err != nil {
					t.Fatal(err)
				}
				bare, bareVec, bareStats := runPlan(t, plan, kind, parties, false)
				timed, timedVec, timedStats := runPlan(t, plan, kind, parties, true)
				for i := range bare {
					if bare[i] != want.Opened(i) || timed[i] != want.Opened(i) {
						t.Fatalf("trial %d output %d: plain %d, bare %d, decorated %d", trial, i, want.Opened(i), bare[i], timed[i])
					}
				}
				for i, v := range want.OpenedVec(0) {
					if bareVec[i] != v || timedVec[i] != v {
						t.Fatalf("trial %d vector output %d: plain %d, bare %d, decorated %d", trial, i, v, bareVec[i], timedVec[i])
					}
				}
				if bareStats != timedStats {
					t.Fatalf("trial %d: bare counters %+v, decorated %+v", trial, bareStats, timedStats)
				}
			}
		})
	}
}

// poisonMesh hands out one receive buffer per endpoint and overwrites it
// on the next Recv, the harshest reading of the ownership rule.
type poisonMesh struct {
	transport.Mesh
	conns []*poisonConn
}

type poisonConn struct {
	transport.PartyConn
	buf []byte
}

func (m *poisonMesh) Conn(i int) transport.PartyConn { return m.conns[i] }

func (c *poisonConn) Recv(from int) ([]byte, error) {
	for i := range c.buf {
		c.buf[i] = 0xff
	}
	p, err := c.PartyConn.Recv(from)
	if err != nil {
		return nil, err
	}
	c.buf = append(c.buf[:0], p...)
	return c.buf, nil
}

// TestTimedMeshHonoursRecvOwnership checks that the decorator hands the
// inner payload straight through — same backing array, nothing kept —
// so the inner mesh may recycle it on the next Recv.
func TestTimedMeshHonoursRecvOwnership(t *testing.T) {
	inner := transport.NewChanMesh(3)
	inner.SetRecvTimeout(5 * time.Second)
	pm := &poisonMesh{Mesh: inner}
	for i := 0; i < 3; i++ {
		pm.conns = append(pm.conns, &poisonConn{PartyConn: inner.Conn(i)})
	}
	mesh := newTimedMesh(pm)
	defer mesh.Close()

	for round := byte(1); round <= 3; round++ {
		if err := mesh.Conn(0).Send(1, []byte{round, round}); err != nil {
			t.Fatal(err)
		}
		got, err := mesh.Conn(1).Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != round {
			t.Fatalf("round %d: received %v", round, got)
		}
		if &got[0] != &pm.conns[1].buf[0] {
			t.Fatalf("round %d: the decorator copied the payload instead of passing it through", round)
		}
	}
	pt := mesh.harvest()
	if pt[0].sends != 3 || pt[1].recvs != 3 {
		t.Errorf("harvest counted %d sends and %d receives, want 3 and 3", pt[0].sends, pt[1].recvs)
	}
	if again := mesh.harvest(); again[0].sends != 0 || again[1].recvWait != 0 {
		t.Errorf("harvest did not reset: %+v", again)
	}
}
