package bgw

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"sqm/internal/randx"
	"sqm/internal/transport"
)

// seamProgram runs a seeded random program over every command that has
// two halves or fills a slot: scalar and vector inputs, local gates
// (vector ones keep length 11: GatherBatch draws 11 indices), a MulBatch and
// a MulBatchUnreduced level of all four kinds, an unshared input, an
// OpenBatch and an OpenVec.
func seamProgram(ev *Engine, seed uint64) []int64 {
	g := randx.New(seed)
	p := ev.Parties()
	small := func() int64 { return int64(g.IntN(2001)) - 1000 }

	owners, ins := make([]int, 5+g.IntN(20)), []int64(nil)
	for i := range owners {
		owners[i] = g.IntN(p)
		ins = append(ins, small())
	}
	vals := append(inputScalars(ev, owners, ins), ev.Input(g.IntN(p), small()), ev.Zero())
	var vecs []Vec
	for i := 0; i < 3; i++ {
		vs := make([]int64, 11)
		for k := range vs {
			vs[k] = small()
		}
		vecs = append(vecs, ev.InputVec(g.IntN(p), vs))
	}
	pick := func() Val { return vals[g.IntN(len(vals))] }
	pickVec := func() Vec { return vecs[g.IntN(len(vecs))] }
	for level := 0; level < 2; level++ {
		for i := 0; i < 30; i++ {
			switch g.IntN(8) {
			case 0:
				vals = append(vals, ev.Add(pick(), pick()))
			case 1:
				vals = append(vals, ev.Sub(pick(), pick()))
			case 2:
				vals = append(vals, ev.AddConst(pick(), small()))
			case 3:
				vals = append(vals, ev.MulConst(pick(), int64(g.IntN(7))-3))
			case 4:
				vals = append(vals, ev.At(pickVec(), g.IntN(11)))
			case 5:
				vecs = append(vecs, ev.AddVec(pickVec(), pickVec()))
			case 6:
				idx := make([]int, 11)
				for k := range idx {
					idx[k] = g.IntN(11)
				}
				// A batch vector lives until the next GatherBatch: the plain
				// sum of one keeps its rows.
				rows := ev.GatherBatch([]Vec{pickVec()}, idx)
				vecs = append(vecs, ev.LinComb(rows, nil, 0))
				clear(idx) // the caller's list is its own again: parties behind a mesh hold a copy
			case 7:
				vs, cs := make([]Vec, g.IntN(4)+1), make([]int64, 4)
				for k := range vs {
					vs[k], cs[k] = pickVec(), int64(g.IntN(7))-3
				}
				vecs = append(vecs, ev.LinComb(vs, cs[:len(vs)], small()))
				clear(cs)
			}
		}
		// The first item is scalar-valued: the terminal level adds to it.
		muls := make([]MulItem, 1+g.IntN(12))
		for i := range muls {
			switch g.IntN(4) {
			case 0:
				muls[i] = MulItem{Kind: MulScalar, A: pick(), B: pick()}
			case 1:
				muls[i] = MulItem{Kind: MulInner, As: []Val{pick(), pick(), pick()}, Bs: []Val{pick(), pick(), pick()}}
			case 2:
				muls[i] = MulItem{Kind: MulDot, VA: pickVec(), VB: pickVec()}
			case 3:
				if i > 0 {
					muls[i] = MulItem{Kind: MulHadamard, VA: pickVec(), VB: pickVec()}
				} else {
					muls[i] = MulItem{Kind: MulDot, VA: pickVec(), VB: pickVec()}
				}
			}
		}
		// split files a level's results: the Hadamards' vectors with the
		// vectors, the rest returned.
		split := func(outs []Val) []Val {
			var scalars []Val
			for _, out := range outs {
				if h, ok := out.(Vec); ok {
					vecs = append(vecs, h)
				} else {
					scalars = append(scalars, out)
				}
			}
			return scalars
		}
		if level == 1 {
			// The last level as Plan.Execute issues a terminal one: kept at
			// degree 2t, through a linear gate, opened — and an unshared
			// input added to the vector that is opened beside it.
			outs := split(ev.MulBatchUnreduced(muls))
			outs[0] = ev.Add(outs[0], pick())
			noise := make([]int64, 11)
			for k := range noise {
				noise[k] = small()
			}
			sum := ev.AddVec(ev.AddVec(vecs[len(vecs)-1], pickVec()), ev.InputUnshared(g.IntN(p), noise))
			clear(noise) // as GatherBatch's list: parties behind a mesh hold a copy
			opened := append(ev.OpenBatch(outs), ev.OpenVec(sum)...)
			return opened
		}
		outs := split(ev.MulBatch(muls))
		// The second level multiplies the first one's outputs.
		vals = append(vals, outs...)
		packed := make([]Val, 11)
		for k := range packed {
			packed[k] = pick()
		}
		vecs = append(vecs, ev.FromScalars(packed))
	}
	return nil
}

// TestChanAndTCPPartiesHoldTheSameSlots: for the same seed the parties
// are one engine over any mesh — every party ends a random program with
// the same scalar and vector slots, element for element, the same values
// are opened, and Stats agree field for field (each mesh counts what it
// carries).
func TestChanAndTCPPartiesHoldTheSameSlots(t *testing.T) {
	for trial := uint64(0); trial < 8; trial++ {
		cfg := Config{Parties: 3 + int(trial%3), Seed: 0x5ea0 + trial}
		overChan := newActorChan(t, cfg)
		want := seamProgram(overChan, trial)
		overTCP := newActorTCP(t, cfg)
		got := seamProgram(overTCP, trial)
		for name, ev := range map[string]*Engine{"chan": overChan, "tcp": overTCP} {
			if err := ev.Err(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
		if !equalInt64(got, want) {
			t.Errorf("trial %d: TCP parties opened %v, chan %v", trial, got, want)
		}
		// Stats runs a barrier, so the party goroutines are idle and
		// their slots safe to read.
		if cs, ts := overChan.Stats(), overTCP.Stats(); cs != ts {
			t.Errorf("trial %d: chan stats %+v, TCP %+v", trial, cs, ts)
		}
		if diff := slotDiff(overChan, overTCP); diff != "" {
			t.Errorf("trial %d: chan vs TCP: %s", trial, diff)
		}
	}
}

// faultyConn tampers with what one party sends to one peer: it drops
// the row, or cuts its last element off.
type faultyConn struct {
	transport.PartyConn
	to       int
	truncate bool
}

func (c faultyConn) SendN(to int, payload []byte, msgs int) error {
	if to != c.to {
		return c.PartyConn.SendN(to, payload, msgs)
	}
	if c.truncate {
		return c.PartyConn.SendN(to, payload[:len(payload)-8], msgs-1)
	}
	return nil
}

// TestDealtRowFaultLatches: a dealt row that never arrives (the
// receive deadline passes) or arrives short is a party failure that
// latches in Err and turns later openings into zeros.
func TestDealtRowFaultLatches(t *testing.T) {
	for name, truncate := range map[string]bool{"dropped row": false, "short row": true} {
		eng := newActorChan(t, Config{Parties: 3, Seed: 7, RecvTimeout: 500 * time.Millisecond})
		x := eng.Input(0, 6)
		if got := eng.Open(eng.Mul(x, x)); got != 36 {
			t.Fatalf("%s: healthy Open = %d, want 36", name, got)
		}
		// At P = 3, t = 1 party 1 draws party 0's rows; party 2 is sent
		// them. The parties are idle after the Open, and the next command
		// reaches party 0 after the swap.
		pa := &eng.parties[0]
		pa.link.conn = faultyConn{PartyConn: pa.link.conn, to: 2, truncate: truncate}
		y := eng.InputVec(0, []int64{1, 2, 3}) // party 2 is starved or short-changed
		if got := eng.OpenVec(y); !equalInt64(got, []int64{0, 0, 0}) {
			t.Errorf("%s: OpenVec after the fault = %v, want zeros", name, got)
		}
		err := eng.Err()
		if err == nil || !strings.Contains(err.Error(), "party") {
			t.Fatalf("%s: Err() = %v, want a party failure", name, err)
		}
		if got := eng.Open(eng.Add(x, x)); got != 0 {
			t.Errorf("%s: Open after the failure = %d, want 0", name, got)
		}
		if got := eng.OpenBatch([]Val{x, eng.Zero()}); !equalInt64(got, []int64{0, 0}) {
			t.Errorf("%s: OpenBatch after the failure = %v, want zeros", name, got)
		}
		if eng.Err() != err {
			t.Errorf("%s: the first error must stay latched", name)
		}
	}
}

// TestNewActorEngineNeedsAMesh: a nil mesh is an error, not a ChanMesh
// engine under another name; a mesh of the wrong size is refused too.
func TestNewActorEngineNeedsAMesh(t *testing.T) {
	if _, err := NewActorEngine(Config{Parties: 3}, nil); err == nil {
		t.Error("nil mesh accepted")
	}
	mesh := transport.NewChanMesh(4)
	defer mesh.Close()
	if _, err := NewActorEngine(Config{Parties: 3}, mesh); err == nil {
		t.Error("4-endpoint mesh accepted for 3 parties")
	}
}

// TestInlineCloseIsIdempotentAndStartsNoGoroutine: an engine from
// NewEngine leaves no goroutine behind once closed — Close joins every
// party goroutine it started over its ChanMesh — Close twice is
// harmless, and a closed engine answers with zeros. (The name dates from
// the inline driver, which started none; the ChanMesh driver's party
// goroutines must all be gone after Close.)
func TestInlineCloseIsIdempotentAndStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, err := NewEngine(Config{Parties: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	evalProgram(t, eng)
	a := eng.Input(0, 4)
	for i := 0; i < 2; i++ {
		if err := eng.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	waitGoroutines(t, base)
	if got := eng.Open(a); got != 0 {
		t.Errorf("Open after Close = %d, want 0", got)
	}
	if got := eng.OpenVec(eng.InputVec(1, []int64{1, 2})); !equalInt64(got, []int64{0, 0}) {
		t.Errorf("OpenVec after Close = %v, want zeros", got)
	}
}
