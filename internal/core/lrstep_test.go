package core

import (
	"strings"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/linalg"
)

// gradientProtocol is what the step tests need of LRProtocol and
// LR3Protocol.
type gradientProtocol interface {
	GradientSum(w []float64, batch []int) ([]float64, *Trace, error)
	Close() error
}

// newGradientProtocol builds the order-1 or the order-3 protocol.
func newGradientProtocol(order3 bool, x *linalg.Matrix, y []float64, p Params) (gradientProtocol, error) {
	if order3 {
		return NewLR3Protocol(x, y, p, 2)
	}
	return NewLRProtocol(x, y, p)
}

// TestGradientStepBitIdenticalAtBatchEdges: for an empty batch, a single
// record and the whole dataset — the vector lengths 0, 1 and m of the
// step's circuit — LR and LR3 open the same integers on every engine,
// step after step on one protocol.
func TestGradientStepBitIdenticalAtBatchEdges(t *testing.T) {
	const m, d = 12, 3
	x, y := lrTestData(m, d, 5)
	w := []float64{0.3, -0.2, 0.1}
	whole := make([]int, m)
	for i := range whole {
		whole[i] = i
	}
	batches := [][]int{{}, {7}, whole, {7}}
	for _, order3 := range []bool{false, true} {
		var want [][]int64
		for _, e := range allEngines() {
			p := Params{Gamma: 16, Mu: 30, Seed: 61, Engine: e.kind, Parties: e.parties}
			proto, err := newGradientProtocol(order3, x, y, p)
			if err != nil {
				t.Fatalf("order3=%v %s: %v", order3, e.name, err)
			}
			var got [][]int64
			for _, batch := range batches {
				_, tr, err := proto.GradientSum(w, batch)
				if err != nil {
					proto.Close()
					t.Fatalf("order3=%v %s batch %v: %v", order3, e.name, batch, err)
				}
				got = append(got, tr.Scaled)
			}
			proto.Close()
			if want == nil {
				want = got
				continue
			}
			for s := range want {
				for c := range want[s] {
					if got[s][c] != want[s][c] {
						t.Errorf("order3=%v %s step %d (|B| = %d) coord %d: opened %d, plain %d",
							order3, e.name, s, len(batches[s]), c, got[s][c], want[s][c])
					}
				}
			}
		}
	}
}

// TestGradientStepCountersClosedForm pins what one step costs to its
// closed form in the batch size B, the features d, the clients, the
// parties P and the threshold t — the scalar per-record circuit's cost,
// which benchmark/replica.go still executes and compares from outside.
// Every step moves
//
//	frames   levels·P·(P−1)
//	messages (muls·P + d·P)·(P−1), 8 bytes each
//
// in levels rounds, where levels is the multiplicative depth — 1 for LR,
// 3 for LR3 (the cube's two levels of B products under the d inner
// products). The noise reaches nothing but the opening, so no party
// shares it: there is no input round and no input frame, and an LR step
// is the opening round alone. The last level, the inner products', is
// terminal: it is opened unreduced, so the levels·P·(P−1) frames are
// levels − 1 reshare exchanges and the opening, and muls counts only the
// products below it, 0 for LR and 2B for LR3. FieldOps sums, over the
// parties, the affine gates' terms·B, one λ⁻¹·x per noise element at each
// of the o = min(clients, P) parties that hold some, every product's
// operand count, P+t+1 for each reshared product, and d for the opening.
func TestGradientStepCountersClosedForm(t *testing.T) {
	for _, c := range []struct{ m, d, B, clients, P, t int }{
		{40, 5, 8, 4, 4, 1},
		{40, 5, 8, 6, 4, 1},
		{30, 4, 1, 5, 5, 2},
		{30, 4, 30, 2, 5, 1},
		{20, 3, 11, 4, 3, 1},
	} {
		x, y := lrTestData(c.m, c.d, 4)
		w := make([]float64, c.d)
		batch := make([]int, c.B)
		for i := range batch {
			batch[i] = (3 * i) % c.m
		}
		o := min(c.clients, c.P)
		P, d, B, th := int64(c.P), int64(c.d), int64(c.B), int64(c.t)
		reshare := P + th + 1
		want := func(levels, muls, linTerms, mulOps int64) bgw.Stats {
			msgs := (muls*P + d*P) * (P - 1)
			return bgw.Stats{
				Rounds:   levels,
				Frames:   levels * P * (P - 1),
				Messages: msgs,
				Bytes:    8 * msgs,
				FieldOps: P*linTerms*B + int64(o)*d + P*(mulOps+muls*reshare) + P*d,
			}
		}
		for _, kind := range []EngineKind{EngineBGW, EngineActorBGW} {
			for _, order3 := range []bool{false, true} {
				p := Params{Gamma: 8, Mu: 1e4, NumClients: c.clients, Engine: kind, Parties: c.P, Threshold: c.t, Seed: 7}
				proto, err := newGradientProtocol(order3, x, y, p)
				if err != nil {
					t.Fatal(err)
				}
				exp := want(1, 0, d+1, d*B)
				if order3 {
					exp = want(3, 2*B, 2*d+1, 2*B+d*B)
				}
				// Two steps: the second one's baseline is the first one's end.
				for step := 0; step < 2; step++ {
					_, tr, err := proto.GradientSum(w, batch)
					if err != nil {
						t.Fatal(err)
					}
					if tr.Stats != exp {
						t.Errorf("%+v %s order3=%v step %d: counters %+v, closed form %+v", c, kind, order3, step, tr.Stats, exp)
					}
				}
				proto.Close()
			}
		}
	}
}

// TestGradientSumRejectsBatchIndexOutOfRange: the batch is caller input,
// so a record index outside [0, m) is an error — the same one on every
// engine, not a slice-bounds panic on plain and an invariant violation
// on the MPC engines — and the protocol goes on working.
func TestGradientSumRejectsBatchIndexOutOfRange(t *testing.T) {
	const m, d = 10, 3
	x, y := lrTestData(m, d, 2)
	w := make([]float64, d)
	for _, kind := range []EngineKind{EnginePlain, EngineBGW, EngineActorBGW} {
		for _, order3 := range []bool{false, true} {
			proto, err := newGradientProtocol(order3, x, y, Params{Gamma: 16, Mu: 10, Seed: 3, Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range [][]int{{0, m}, {-1}, {2, 3, 1 << 40}} {
				_, _, err := proto.GradientSum(w, batch)
				if err == nil || !strings.Contains(err.Error(), "out of range [0,10)") {
					t.Errorf("%s order3=%v batch %v: err = %v, want the batch-index error", kind, order3, batch, err)
				}
			}
			if _, _, err := proto.GradientSum(w, []int{0, m - 1}); err != nil {
				t.Errorf("%s order3=%v: a valid batch after refused ones: %v", kind, order3, err)
			}
			proto.Close()
		}
	}
}
