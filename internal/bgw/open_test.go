package bgw

import (
	"fmt"
	"testing"

	"sqm/internal/transport"
)

// rowLog holds the length of every row each ordered link carried, in
// send order: rowLog[from][to].
type rowLog [][][]int

func newRowLog(p int) rowLog {
	l := make(rowLog, p)
	for i := range l {
		l[i] = make([][]int, p)
	}
	return l
}

// since returns the rows each link carried after the snapshot before.
func (l rowLog) since(before rowLog) rowLog {
	out := newRowLog(len(l))
	for i := range l {
		for j := range l[i] {
			out[i][j] = l[i][j][len(before[i][j]):]
		}
	}
	return out
}

// clone copies the log, a snapshot to take since from.
func (l rowLog) clone() rowLog {
	out := newRowLog(len(l))
	for i := range l {
		for j := range l[i] {
			out[i][j] = append([]int(nil), l[i][j]...)
		}
	}
	return out
}

// logConn is a party's endpoint that writes the length of every row it
// sends into a rowLog. Party i writes only log[i], from its own goroutine.
type logConn struct {
	transport.PartyConn
	id  int
	log rowLog
}

func (c logConn) SendN(to int, payload []byte, msgs int) error {
	c.log[c.id][to] = append(c.log[c.id][to], len(payload)/8)
	return c.PartyConn.SendN(to, payload, msgs)
}

// logRows has every party of an engine that has run no command yet log
// its rows, and returns the log: read it after a barrier (Stats).
func logRows(e *Engine) rowLog {
	log := newRowLog(e.p)
	for i := range e.parties {
		pa := &e.parties[i]
		pa.link.conn = logConn{PartyConn: pa.link.conn, id: i, log: log}
	}
	return log
}

// meshRows reads a recMesh's frames as rows of 8-byte elements.
func meshRows(m *recMesh) rowLog {
	m.mu.Lock()
	defer m.mu.Unlock()
	log := newRowLog(len(m.frames))
	for i := range m.frames {
		for j, fs := range m.frames[i] {
			for _, f := range fs {
				log[i][j] = append(log[i][j], len(f)/8)
			}
		}
	}
	return log
}

// TestOpeningReachesOnlyItsDecoder: an OpenVec of n elements puts one
// n-element row on every link i→0 and nothing on any other link, as the
// parties send it and as both meshes carry it. The engine meters what was sent
// — P−1 frames, n·(P−1) messages, 8 bytes each — while every party still
// publishes, one field multiplication per element and party, and the
// opened values are the plaintext ones.
func TestOpeningReachesOnlyItsDecoder(t *testing.T) {
	const n = 7
	u, v, eta := make([]int64, n), make([]int64, n), make([]int64, n)
	want := make([]int64, n)
	for k := range u {
		u[k], v[k], eta[k] = int64(3*k)-10, 1<<20-int64(k*k), int64(k)-1<<30
		want[k] = u[k]*v[k] + eta[k]
	}
	for _, cfg := range []Config{
		{Parties: 4, Threshold: 1, Seed: 0x0be7},
		{Parties: 5, Threshold: 2, Seed: 0x0be7},
	} {
		p := cfg.Parties
		// Each driver returns its engine and a reader of what its links
		// have carried so far.
		drivers := map[string]func() (*Engine, func() rowLog){
			"parties": func() (*Engine, func() rowLog) {
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				log := logRows(e)
				return e, log.clone
			},
			"chan": func() (*Engine, func() rowLog) {
				rec := &recMesh{Mesh: transport.NewChanMesh(p), frames: linkFrames(p)}
				e, err := NewActorEngine(cfg, rec)
				if err != nil {
					t.Fatal(err)
				}
				return e, func() rowLog { return meshRows(rec) }
			},
			"tcp": func() (*Engine, func() rowLog) {
				mesh, err := transport.NewTCPMesh(p)
				if err != nil {
					t.Fatal(err)
				}
				rec := &recMesh{Mesh: mesh, frames: linkFrames(p)}
				e, err := NewActorEngine(cfg, rec)
				if err != nil {
					t.Fatal(err)
				}
				return e, func() rowLog { return meshRows(rec) }
			},
		}
		for name, start := range drivers {
			at := fmt.Sprintf("P=%d t=%d %s", p, cfg.Threshold, name)
			e, rows := start()
			// An unreduced product plus an unshared addend: degree P−1 at
			// most, the widest sharing an opening takes.
			x, y := e.InputVec(1, u), e.InputVec(p-1, v)
			h := e.MulBatchUnreduced([]MulItem{{Kind: MulHadamard, VA: x, VB: y}})[0].(Vec)
			z := e.AddVec(h, e.InputUnshared(2, eta))
			// Stats waits on every party, so nothing of the input round is
			// still on its way when the snapshot is taken.
			st0 := e.Stats()
			before := rows()
			got := e.OpenVec(z)
			st := e.Stats()
			opened := rows().since(before)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Err(); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if !equalInt64(got, want) {
				t.Errorf("%s: opened %v, want %v", at, got, want)
			}
			for i := range opened {
				for j, rs := range opened[i] {
					switch {
					case i == j:
					case j == 0 && (len(rs) != 1 || rs[0] != n):
						t.Errorf("%s: link %d→0 carried rows %v in the opening, want one of %d elements", at, i, rs, n)
					case j != 0 && len(rs) != 0:
						t.Errorf("%s: link %d→%d carried rows %v in the opening, want none", at, i, j, rs)
					}
				}
			}
			delta := Stats{
				Rounds:   st.Rounds - st0.Rounds,
				Frames:   st.Frames - st0.Frames,
				Messages: st.Messages - st0.Messages,
				Bytes:    st.Bytes - st0.Bytes,
				FieldOps: st.FieldOps - st0.FieldOps,
			}
			if wantDelta := (Stats{Rounds: 1, Frames: int64(p - 1), Messages: int64(n * (p - 1)), Bytes: int64(8 * n * (p - 1)), FieldOps: int64(n * p)}); delta != wantDelta {
				t.Errorf("%s: the opening metered %+v, want %+v", at, delta, wantDelta)
			}
		}
	}
}
