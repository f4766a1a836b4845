package bgw

import (
	"testing"

	"sqm/internal/transport"
)

// evalProgram runs one fixed circuit exercising every Evaluator
// operation and returns all opened values in order. Openings only
// depend on the secret inputs — BGW computes exactly — so every
// backend must produce the identical trace.
func evalProgram(t *testing.T, ev Evaluator) []int64 {
	t.Helper()
	var out []int64

	a := ev.Input(0, 37)
	b := ev.Input(1, -12)
	c := ev.Input(2, 1000003)

	out = append(out, ev.Open(ev.Add(a, b)))
	out = append(out, ev.Open(ev.Sub(a, c)))
	out = append(out, ev.Open(ev.AddConst(b, 99)))
	out = append(out, ev.Open(ev.MulConst(c, -3)))
	out = append(out, ev.Open(ev.Mul(a, b)))
	out = append(out, ev.Open(ev.Zero()))
	out = append(out, ev.Open(ev.InnerProduct([]Val{a, b, c}, []Val{c, b, a})))

	u := ev.InputVec(0, []int64{1, -2, 3, -4})
	v := ev.InputVec(1, []int64{5, 6, -7, 8})
	out = append(out, ev.Open(ev.Dot(u, v)))
	out = append(out, ev.Open(ev.At(ev.AddVec(u, v), 2)))
	out = append(out, ev.OpenVec(u)...)

	dots := ev.DotBatch([]VecPair{{A: u, B: v}, {A: u, B: u}, {A: v, B: v}}, 2)
	for _, d := range dots {
		out = append(out, ev.Open(d))
	}
	out = append(out, ev.OpenVec(ev.FromScalars([]Val{a, b}))...)
	return out
}

// newActorChan starts a NewEngine — the parties behind a ChanMesh — that
// the test closes when it ends.
func newActorChan(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func newActorTCP(t *testing.T, cfg Config) *Engine {
	t.Helper()
	mesh, err := transport.NewTCPMesh(cfg.Parties)
	if err != nil {
		t.Fatalf("NewTCPMesh: %v", err)
	}
	eng, err := NewActorEngine(cfg, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestActorMatchesMonolithic checks that the parties open bit-identical
// values behind NewEngine's mesh and behind a channel and a TCP mesh
// handed to NewActorEngine.
func TestActorMatchesMonolithic(t *testing.T) {
	for _, parties := range []int{3, 5} {
		cfg := Config{Parties: parties, Seed: 42}
		mono := newActorChan(t, cfg)
		want := evalProgram(t, Eval(mono))

		chanEng := newActorChan(t, cfg)
		if got := evalProgram(t, chanEng); !equalInt64(got, want) {
			t.Errorf("P=%d chan mesh: got %v, want %v", parties, got, want)
		}
		if err := chanEng.Err(); err != nil {
			t.Errorf("P=%d chan mesh: unexpected engine error: %v", parties, err)
		}

		tcpEng := newActorTCP(t, cfg)
		if got := evalProgram(t, tcpEng); !equalInt64(got, want) {
			t.Errorf("P=%d tcp mesh: got %v, want %v", parties, got, want)
		}
		if err := tcpEng.Err(); err != nil {
			t.Errorf("P=%d tcp mesh: unexpected engine error: %v", parties, err)
		}
	}
}

// TestActorSeedIndependence: opened values must not depend on the share
// randomness, only on the inputs.
func TestActorSeedIndependence(t *testing.T) {
	cfg1 := Config{Parties: 3, Seed: 1}
	cfg2 := Config{Parties: 3, Seed: 0xdeadbeef}
	got1 := evalProgram(t, newActorChan(t, cfg1))
	got2 := evalProgram(t, newActorChan(t, cfg2))
	if !equalInt64(got1, got2) {
		t.Errorf("opened values depend on share randomness: %v vs %v", got1, got2)
	}
}

// TestActorFieldOpsMatchMonolithic: the per-party field-op counters are
// slices of one cost model, so their sum must agree with NewEngine's.
func TestActorFieldOpsMatchMonolithic(t *testing.T) {
	cfg := Config{Parties: 5, Seed: 7}
	mono := newActorChan(t, cfg)
	evalProgram(t, Eval(mono))
	eng := newActorChan(t, cfg)
	evalProgram(t, eng)
	if got, want := eng.Stats().FieldOps, mono.Stats().FieldOps; got != want {
		t.Errorf("FieldOps = %d, want %d (NewEngine)", got, want)
	}
	if got, want := eng.Stats().Rounds, mono.Stats().Rounds; got != want {
		t.Errorf("Rounds = %d, want %d", got, want)
	}
}

// TestActorStatsMeasured: the chan mesh counts real traffic; for the
// simple ops the measured counts coincide with the cost model
// (P−1−t messages per input, P(P−1−t) per resharing, P−1 per
// opening: one row into party 0 from each peer).
func TestActorStatsMeasured(t *testing.T) {
	cfg := Config{Parties: 3, Seed: 9}
	eng := newActorChan(t, cfg)
	a := eng.Input(0, 5)
	b := eng.Input(1, 7)
	if got := eng.Open(eng.Mul(a, b)); got != 35 {
		t.Fatalf("Open(Mul) = %d, want 35", got)
	}
	st := eng.Stats()
	p, unseeded := int64(cfg.Parties), int64(cfg.Parties-1-eng.Threshold())
	wantMsgs := 2*unseeded + p*unseeded + (p - 1) // 2 inputs + 1 resharing + 1 opening
	if st.Messages != wantMsgs {
		t.Errorf("Messages = %d, want %d", st.Messages, wantMsgs)
	}
	if st.Bytes != 8*wantMsgs {
		t.Errorf("Bytes = %d, want %d", st.Bytes, 8*wantMsgs)
	}
	// Reading the counters moves none of them.
	if d := eng.Stats().Sub(st); d.Messages != 0 || d.Bytes != 0 || d.FieldOps != 0 || d.Rounds != 0 {
		t.Errorf("a second snapshot differs from the first by %+v", d)
	}
}

// TestActorAbort kills one party's endpoint mid-protocol: the engine
// must fail fast with a sticky error instead of hanging, and later
// openings must return zero values.
func TestActorAbort(t *testing.T) {
	cfg := Config{Parties: 3, Seed: 3}
	mesh := transport.NewChanMesh(cfg.Parties)
	eng, err := NewActorEngine(cfg, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	defer eng.Close()

	a := eng.Input(0, 11)
	b := eng.Input(1, 13)
	if got := eng.Open(eng.Mul(a, b)); got != 143 {
		t.Fatalf("pre-abort Open = %d, want 143", got)
	}

	mesh.Conn(2).Close() // party 2 dies

	c := eng.Mul(a, b) // resharing now fails for the survivors
	if got := eng.Open(c); got != 0 {
		t.Errorf("post-abort Open = %d, want 0", got)
	}
	if eng.Err() == nil {
		t.Error("Err() = nil after abort, want transport failure")
	}
	// Every later operation is a no-op returning zero values.
	if got := eng.Open(eng.Add(a, b)); got != 0 {
		t.Errorf("Open after failure = %d, want 0", got)
	}
	if got := eng.OpenVec(eng.InputVec(0, []int64{1, 2})); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("OpenVec after failure = %v, want zeros", got)
	}
}

// TestActorAbortTCP: the same death cascades through real sockets as
// EOFs/resets.
func TestActorAbortTCP(t *testing.T) {
	cfg := Config{Parties: 3, Seed: 3}
	mesh, err := transport.NewTCPMesh(cfg.Parties)
	if err != nil {
		t.Fatalf("NewTCPMesh: %v", err)
	}
	eng, err := NewActorEngine(cfg, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	defer eng.Close()

	a := eng.Input(0, 11)
	b := eng.Input(1, 13)
	if got := eng.Open(eng.Mul(a, b)); got != 143 {
		t.Fatalf("pre-abort Open = %d, want 143", got)
	}
	mesh.Conn(2).Close()
	if got := eng.Open(eng.Mul(a, b)); got != 0 {
		t.Errorf("post-abort Open = %d, want 0", got)
	}
	if eng.Err() == nil {
		t.Error("Err() = nil after abort, want transport failure")
	}
}

// TestActorCloseIdempotent: Close after a program, and Close twice, is
// harmless, and operations after close return zero values without
// hanging.
func TestActorCloseIdempotent(t *testing.T) {
	for _, cfg := range []Config{{Parties: 3, Seed: 1}, {Parties: 5, Seed: 3}} {
		eng, err := NewActorEngine(cfg, transport.NewChanMesh(cfg.Parties))
		if err != nil {
			t.Fatalf("NewActorEngine: %v", err)
		}
		evalProgram(t, eng)
		a := eng.Input(0, 4)
		if got := eng.Open(a); got != 4 {
			t.Fatalf("P=%d: Open = %d, want 4", cfg.Parties, got)
		}
		for i := 0; i < 2; i++ {
			if err := eng.Close(); err != nil {
				t.Fatalf("P=%d: Close %d: %v", cfg.Parties, i+1, err)
			}
		}
		if got := eng.Open(a); got != 0 {
			t.Errorf("P=%d: Open after Close = %d, want 0", cfg.Parties, got)
		}
		if got := eng.Open(eng.Input(0, 9)); got != 0 {
			t.Errorf("P=%d: Open of a new input after Close = %d, want 0", cfg.Parties, got)
		}
		if got := eng.OpenVec(eng.InputVec(1, []int64{1, 2})); !equalInt64(got, []int64{0, 0}) {
			t.Errorf("P=%d: OpenVec after Close = %v, want zeros", cfg.Parties, got)
		}
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
