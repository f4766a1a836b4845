package bgw

import (
	"errors"
	"testing"
	"time"

	"sqm/internal/transport"
)

// TestActorRecvTimeoutSurfacesAsPartyFailure: with Config.RecvTimeout
// set, a silently lossy link fails the starved party with a typed
// transport.ErrTimeout instead of hanging the protocol forever.
func TestActorRecvTimeoutSurfacesAsPartyFailure(t *testing.T) {
	// Link 0→1 drops every message: party 1 starves waiting for party
	// 0's input share while 0's send succeeds, the silent-loss shape a
	// deadline exists to catch.
	mesh := transport.NewFaultMesh(transport.NewChanMesh(3), transport.FaultProfile{
		Seed:  1,
		Links: map[[2]int]transport.LinkFault{{0, 1}: {DropProb: 1}},
	})
	eng, err := NewActorEngine(Config{
		Parties:     3,
		Seed:        7,
		RecvTimeout: 50 * time.Millisecond,
	}, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	done := make(chan int64, 1)
	go func() { done <- eng.Open(eng.Input(0, 42)) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("protocol hung despite RecvTimeout")
	}
	if err := eng.Err(); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("engine error = %v, want errors.Is(err, transport.ErrTimeout)", err)
	}
}

// TestActorRecvTimeoutHarmlessWhenHealthy: a generous deadline on a
// healthy mesh changes nothing.
func TestActorRecvTimeoutHarmlessWhenHealthy(t *testing.T) {
	mesh := transport.NewChanMesh(3)
	eng, err := NewActorEngine(Config{
		Parties:     3,
		Seed:        7,
		RecvTimeout: 5 * time.Second,
	}, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.Open(eng.Mul(eng.Input(0, 6), eng.Input(1, 7))); got != 42 {
		t.Fatalf("Open = %d, want 42", got)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestActorCutWithQueuedGatesLatchesErr: scalar gates wait in the
// facade's queue until the next flushing command. When the frame that
// flushes them vanishes behind a cut link, the starved party must time
// out, the engine must latch the typed error, and everything after —
// queued gates, new gates, every kind of opening — must return handles
// and zeros without ever blocking the caller.
func TestActorCutWithQueuedGatesLatchesErr(t *testing.T) {
	// Link 0→1 carries one message (the first input share) and then
	// black-holes: the second input's share never reaches party 1.
	mesh := transport.NewFaultMesh(transport.NewChanMesh(3), transport.FaultProfile{
		Seed:  1,
		Links: map[[2]int]transport.LinkFault{{0, 1}: {CutAfter: 1}},
	})
	eng, err := NewActorEngine(Config{
		Parties:     3,
		Seed:        7,
		RecvTimeout: 50 * time.Millisecond,
	}, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	type result struct {
		open   int64
		batch  []int64
		vec    []int64
		queued int
	}
	done := make(chan result, 1)
	go func() {
		var r result
		a := eng.Input(0, 42)
		acc := eng.Zero()
		for i := 0; i < 20; i++ {
			acc = eng.Add(acc, eng.MulConst(a, int64(i)))
		}
		r.queued = len(eng.queue)
		b := eng.Input(0, 7) // flushes the queue; its share to party 1 is cut
		acc = eng.Sub(acc, b)
		r.open = eng.Open(acc)
		// The engine is failed now: gates still hand out handles.
		later := eng.AddConst(eng.Add(a, b), 3)
		if later == nil {
			t.Error("gate after failure returned a nil handle")
		}
		r.batch = eng.OpenBatch([]Val{later, acc})
		r.vec = eng.OpenVec(eng.InputVec(1, []int64{1, 2, 3}))
		done <- r
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("protocol hung behind a cut link with gates queued")
	}
	if r.queued == 0 {
		t.Fatal("no scalar gate was queued when the cut frame was issued; the test no longer exercises the queue")
	}
	if err := eng.Err(); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("engine error = %v, want errors.Is(err, transport.ErrTimeout)", err)
	}
	if r.open != 0 {
		t.Errorf("Open after the cut = %d, want 0", r.open)
	}
	for _, vs := range [][]int64{r.batch, r.vec} {
		for _, v := range vs {
			if v != 0 {
				t.Errorf("opening after failure = %v, want zeros", vs)
			}
		}
	}
	if len(r.batch) != 2 || len(r.vec) != 3 {
		t.Errorf("openings after failure have lengths %d and %d, want 2 and 3", len(r.batch), len(r.vec))
	}
	if inj := mesh.Injected(); inj.Cuts == 0 {
		t.Errorf("profile injected no cut: %+v", inj)
	}
}
