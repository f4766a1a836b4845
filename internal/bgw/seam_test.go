package bgw

import (
	"runtime"
	"strings"
	"testing"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/transport"
)

// seamProgram runs a seeded random program over every command that has
// two halves or fills a slot: scalar and vector inputs, local gates
// (vector ones keep length 11: Gather draws 11 indices), a MulBatch and
// a MulBatchUnreduced level of all three kinds, an unshared input, an
// OpenBatch and an OpenVec.
func seamProgram(ev *Engine, seed uint64) []int64 {
	g := randx.New(seed)
	p := ev.Parties()
	small := func() int64 { return int64(g.IntN(2001)) - 1000 }

	items := make([]InputItem, 5+g.IntN(20))
	for i := range items {
		items[i] = InputItem{Owner: g.IntN(p), Elem: field.FromInt64(small())}
	}
	vals := append(ev.InputBatch(items), ev.Input(g.IntN(p), small()), ev.Zero())
	var vecs []Vec
	for i := 0; i < 3; i++ {
		vs := make([]int64, 11)
		for k := range vs {
			vs[k] = small()
		}
		vecs = append(vecs, ev.InputVec(g.IntN(p), vs))
	}
	ev.AdvanceRound()
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
				vecs = append(vecs, ev.Gather(pickVec(), idx))
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
		muls := make([]MulItem, 1+g.IntN(12))
		for i := range muls {
			switch g.IntN(3) {
			case 0:
				muls[i] = MulItem{Kind: MulScalar, A: pick(), B: pick()}
			case 1:
				muls[i] = MulItem{Kind: MulInner, As: []Val{pick(), pick(), pick()}, Bs: []Val{pick(), pick(), pick()}}
			case 2:
				muls[i] = MulItem{Kind: MulDot, VA: pickVec(), VB: pickVec()}
			}
		}
		if level == 1 {
			// The last level as Plan.Execute issues a terminal one: kept at
			// degree 2t, through a linear gate, opened — and an unshared
			// input added to the vector that is opened beside it.
			outs := ev.MulBatchUnreduced(muls)
			outs[0] = ev.Add(outs[0], pick())
			noise := make([]int64, 11)
			for k := range noise {
				noise[k] = small()
			}
			sum := ev.AddVec(ev.AddVec(pickVec(), pickVec()), ev.InputUnshared(g.IntN(p), noise))
			clear(noise) // as Gather's list: parties behind a mesh hold a copy
			opened := append(ev.OpenBatch(outs), ev.OpenVec(sum)...)
			ev.AdvanceRound()
			return opened
		}
		outs := ev.MulBatch(muls)
		ev.AdvanceRound()
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

// TestInlineAndMeshPartiesHoldTheSameSlots: for the same seed the two
// drivers are one engine — every party ends a random program with the
// same scalar and vector slots, element for element, the same values
// are opened, and Stats agree field for field (the in-memory link counts
// what the mesh measures).
func TestInlineAndMeshPartiesHoldTheSameSlots(t *testing.T) {
	for trial := uint64(0); trial < 8; trial++ {
		cfg := Config{Parties: 3 + int(trial%3), Seed: 0x5ea0 + trial}
		inline, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := seamProgram(inline, trial)
		behind := newActorChan(t, cfg)
		got := seamProgram(behind, trial)
		for name, ev := range map[string]*Engine{"inline": inline, "mesh": behind} {
			if err := ev.Err(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
		if !equalInt64(got, want) {
			t.Errorf("trial %d: mesh parties opened %v, inline %v", trial, got, want)
		}
		// Stats runs a barrier, so the party goroutines are idle and
		// their slots safe to read.
		if is, ms := inline.Stats(), behind.Stats(); is != ms {
			t.Errorf("trial %d: inline stats %+v, mesh %+v", trial, is, ms)
		}
		if diff := slotDiff(inline, behind); diff != "" {
			t.Errorf("trial %d: inline vs mesh: %s", trial, diff)
		}
	}
}

// faultyLink tampers with what one party sends to one peer: it drops
// the row, or cuts its last element off.
type faultyLink struct {
	link
	to       int
	truncate bool
}

func (l faultyLink) send(to int, row []field.Elem) error {
	if to != l.to {
		return l.link.send(to, row)
	}
	if l.truncate {
		return l.link.send(to, row[:len(row)-1])
	}
	return nil
}

// TestMemLinkRefusesUnmatchedRecv: the in-memory link refuses a recv
// with no matching send and one of the wrong length; through the engine
// the refusal is a party failure that latches in Err and turns later
// openings into zeros, as a transport failure does on a mesh.
func TestMemLinkRefusesUnmatchedRecv(t *testing.T) {
	hub := &memHub{p: 3, box: make([]memRow, 9)}
	a, b := memLink{hub: hub, id: 0}, memLink{hub: hub, id: 1}
	if _, err := b.recv(0, 2); err == nil || !strings.Contains(err.Error(), "no row") {
		t.Fatalf("recv without a send: err = %v", err)
	}
	if err := a.send(1, []field.Elem{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.recv(0, 2); err == nil || !strings.Contains(err.Error(), "bad row") {
		t.Fatalf("recv of the wrong length: err = %v", err)
	}
	if _, err := b.recv(0, 3); err == nil {
		t.Fatal("a refused row must not be delivered later")
	}
	if err := a.send(1, []field.Elem{}); err != nil {
		t.Fatal(err)
	}
	if row, err := b.recv(0, 0); err != nil || len(row) != 0 {
		t.Fatalf("empty row: %v, %v", row, err)
	}
	if hub.frames != 2 || hub.msgs != 3 || hub.bytes != 24 {
		t.Fatalf("hub counted %d frames / %d messages / %d bytes, want 2 / 3 / 24", hub.frames, hub.msgs, hub.bytes)
	}

	for name, truncate := range map[string]bool{"dropped row": false, "short row": true} {
		eng := newTestEngine(t, 3)
		x := eng.Input(0, 6)
		if got := eng.Open(eng.Mul(x, x)); got != 36 {
			t.Fatalf("%s: healthy Open = %d, want 36", name, got)
		}
		eng.parties[0].link = faultyLink{link: eng.parties[0].link, to: 1, truncate: truncate}
		y := eng.InputVec(0, []int64{1, 2, 3}) // party 1 is starved or short-changed
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

// TestInlineCloseIsIdempotentAndStartsNoGoroutine: the inline driver
// owns no goroutine at any point between NewEngine and Close, Close
// twice is harmless, and a closed engine answers with zeros.
func TestInlineCloseIsIdempotentAndStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, err := NewEngine(Config{Parties: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range eng.parties {
		pa.chunks = 1 // the MulBatch pool's goroutines end before MulBatch returns; keep the count exact
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("NewEngine started goroutines: %d live, %d before", n, base)
	}
	evalProgram(t, eng)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("a program left goroutines: %d live, %d before", n, base)
	}
	a := eng.Input(0, 4)
	for i := 0; i < 2; i++ {
		if err := eng.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("Close left goroutines: %d live, %d before", n, base)
	}
	if got := eng.Open(a); got != 0 {
		t.Errorf("Open after Close = %d, want 0", got)
	}
	if got := eng.OpenVec(eng.InputVec(1, []int64{1, 2})); !equalInt64(got, []int64{0, 0}) {
		t.Errorf("OpenVec after Close = %v, want zeros", got)
	}
}

// TestNewActorEngineNeedsAMesh: a nil mesh is an error, not an inline
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
