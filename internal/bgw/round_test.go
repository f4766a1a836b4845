package bgw

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sqm/internal/transport"
)

// holdMesh holds back every frame party 0 sends until party P−1 has sent
// release frames of its own; then it sends party 0's frames, in order,
// and lets the later ones through.
type holdMesh struct {
	transport.Mesh
	release int

	mu   sync.Mutex
	sent int // party P−1's frames so far
	open bool
	held []heldFrame
}

type heldFrame struct {
	to      int
	payload []byte
	msgs    int
}

type holdConn struct {
	transport.PartyConn
	m *holdMesh
}

func (m *holdMesh) Conn(party int) transport.PartyConn {
	return &holdConn{PartyConn: m.Mesh.Conn(party), m: m}
}

func (c *holdConn) Send(to int, payload []byte) error { return c.SendN(to, payload, 1) }

func (c *holdConn) SendN(to int, payload []byte, msgs int) error {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	switch c.ID() {
	case 0:
		if !m.open {
			m.held = append(m.held, heldFrame{to, payload, msgs})
			return nil
		}
	case m.Parties() - 1:
		if err := c.PartyConn.SendN(to, payload, msgs); err != nil {
			return err
		}
		if m.sent++; m.sent == m.release {
			m.open = true
			for _, f := range m.held {
				if err := m.Mesh.Conn(0).SendN(f.to, f.payload, f.msgs); err != nil {
					return err
				}
			}
			m.held = nil
		}
		return nil
	}
	return c.PartyConn.SendN(to, payload, msgs)
}

// TestInputRoundDealsBeforeItWaits: party 0's frames are held back until
// party P−1 has sent all its rows of the input round. Dealt column by
// column — each InputVec a command of its own, as before the round — P−1
// waits on party 0's first column before it deals one of its own, so
// the session deadlocks and fails through RecvTimeout. Dealt as one
// round, every party deals all it owns before it waits, P−1's rows free
// party 0's, and the round opens the right values. On both meshes.
func TestInputRoundDealsBeforeItWaits(t *testing.T) {
	// At P = 4, t = 1 party 0's seeded peer is 1, so the frames held are
	// those to parties 2 and 3, and P−1 sends P − 1 − t = 2 frames per
	// column, to parties 1 and 2 (party 0 draws P−1's rows).
	const parties, threshold, perParty, n = 4, 1, 2, 5
	cols := make([][]int64, parties*perParty)
	for j := range cols {
		cols[j] = make([]int64, n)
		for k := range cols[j] {
			cols[j][k] = int64(100*j + k)
		}
	}
	meshes := []struct {
		name string
		new  func() (transport.Mesh, error)
	}{
		{"chan", func() (transport.Mesh, error) { return transport.NewChanMesh(parties), nil }},
		{"tcp", func() (transport.Mesh, error) { return transport.NewTCPMesh(parties) }},
	}
	for _, m := range meshes {
		for _, perColumn := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/per-column=%v", m.name, perColumn), func(t *testing.T) {
				inner, err := m.new()
				if err != nil {
					t.Fatal(err)
				}
				mesh := &holdMesh{Mesh: inner, release: perParty * (parties - 1 - threshold)}
				eng, err := NewActorEngine(Config{Parties: parties, Threshold: threshold, Seed: 5, RecvTimeout: 300 * time.Millisecond}, mesh)
				if err != nil {
					t.Fatal(err)
				}
				vecs := make([]Vec, len(cols))
				for j, col := range cols {
					vecs[j] = eng.InputVec(j%parties, col) // columns dealt round-robin, as core places them
					if perColumn {
						eng.At(vecs[j], 0) // a local gate issues the column as a command of its own
					}
				}
				sum := vecs[0]
				for _, v := range vecs[1:] {
					sum = eng.AddVec(sum, v)
				}
				got := eng.OpenVec(sum)
				engErr := eng.Err()
				eng.Close()
				if perColumn {
					timedOut := false
					for _, pa := range eng.parties {
						timedOut = timedOut || errors.Is(pa.err, transport.ErrTimeout)
					}
					if engErr == nil || !timedOut {
						t.Fatalf("column-by-column dealing ran past the held frames: engine error %v, a party timed out: %v", engErr, timedOut)
					}
					return
				}
				if engErr != nil {
					t.Fatalf("the input round waited on a held frame: %v", engErr)
				}
				for k := range got {
					var want int64
					for _, col := range cols {
						want += col[k]
					}
					if got[k] != want {
						t.Fatalf("element %d opened %d, want %d", k, got[k], want)
					}
				}
			})
		}
	}
}

// TestEngineCountsItsExchanges: the engine counts a round where it issues
// an exchange, and nowhere else. InputVecs leave the input round open —
// nothing is counted — until the next command, a local gate here, issues
// it as one round; a MulBatch, an OpenVec, an OpenBatch and an Open are
// one round each; MulBatchUnreduced, InputUnshared and the local gates
// are none; and a command a failed or closed engine drops counts
// nothing. Behind a channel and a TCP mesh.
func TestEngineCountsItsExchanges(t *testing.T) {
	cfg := Config{Parties: 4, Seed: 9}
	drivers := map[string]func() *Engine{
		"chan": func() *Engine { return newActorChan(t, cfg) },
		"tcp":  func() *Engine { return newActorTCP(t, cfg) },
	}
	for name, start := range drivers {
		e := start()
		// counts runs f between two Stats barriers and checks the rounds
		// it added.
		counts := func(what string, want int64, f func()) {
			t.Helper()
			before := e.Stats().Rounds
			f()
			if got := e.Stats().Rounds - before; got != want {
				t.Errorf("%s: %s counted %d rounds, want %d", name, what, got, want)
			}
		}
		var x, y, z Vec
		counts("3 InputVecs and a local gate", 1, func() {
			before := e.rounds
			x, y = e.InputVec(0, []int64{1, 2, 3}), e.InputVec(1, []int64{4, 5, 6})
			z = e.InputVec(3, []int64{7, 8, 9})
			if e.rounds != before {
				t.Errorf("%s: the open input round was counted before it was issued", name)
			}
			e.AddVec(x, z)
			if e.rounds != before+1 {
				t.Errorf("%s: the local gate after the InputVecs issued %d rounds, want 1", name, e.rounds-before)
			}
		})
		var dot Val
		counts("MulBatch", 1, func() {
			dot = e.MulBatch([]MulItem{{Kind: MulDot, VA: x, VB: y}, {Kind: MulHadamard, VA: x, VB: z}})[0]
		})
		var kept []Val
		counts("MulBatchUnreduced", 0, func() {
			kept = e.MulBatchUnreduced([]MulItem{{Kind: MulDot, VA: y, VB: z}})
		})
		counts("InputUnshared", 0, func() { e.InputUnshared(2, []int64{1, 1, 1}) })
		local := map[string]func(){
			"AddVec":      func() { e.AddVec(x, y) },
			"GatherBatch": func() { e.GatherBatch([]Vec{x, y}, []int{2, 0}) },
			"LinComb":     func() { e.LinComb([]Vec{x, y}, []int64{2, -1}, 5) },
			"At":          func() { e.At(y, 1) },
			"FromScalars": func() { e.FromScalars([]Val{dot, kept[0]}) },
		}
		for what, f := range local {
			counts(what, 0, f)
		}
		counts("OpenVec", 1, func() { e.OpenVec(x) })
		counts("OpenBatch", 1, func() { e.OpenBatch([]Val{dot, kept[0]}) })
		counts("Open", 1, func() { e.Open(dot) })
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// An unshared operand fails the engine (ErrOpenOnly): the product
		// is dropped, and so is everything after it.
		counts("a refused MulBatch and what follows it", 0, func() {
			e.MulBatch([]MulItem{{Kind: MulDot, VA: e.InputUnshared(0, []int64{1, 2, 3}), VB: y}})
			e.OpenVec(e.AddVec(e.InputVec(1, []int64{1, 2, 3}), y))
			e.Open(dot)
		})
		if !errors.Is(e.Err(), ErrOpenOnly) {
			t.Fatalf("%s: engine error %v, want ErrOpenOnly", name, e.Err())
		}

		healthy := start()
		healthy.InputVec(0, []int64{1})
		if err := healthy.Close(); err != nil {
			t.Fatal(err)
		}
		healthy.At(healthy.InputVec(2, []int64{4}), 0)
		healthy.OpenVec(healthy.InputVec(1, []int64{5}))
		if got := healthy.Stats().Rounds; got != 0 {
			t.Errorf("%s: a closed engine counted %d rounds, want 0", name, got)
		}
	}
}
