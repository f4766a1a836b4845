package bgw

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"sqm/internal/obs"
	"sqm/internal/transport"
)

// TestActorRecvTimeoutSurfacesAsPartyFailure: with Config.RecvTimeout
// set, a silently lossy link fails the starved party with a typed
// transport.ErrTimeout instead of hanging the protocol forever.
func TestActorRecvTimeoutSurfacesAsPartyFailure(t *testing.T) {
	// Each link drops every message while its sender's sends succeed, the
	// silent-loss shape a deadline exists to catch. At P = 3, t = 1 link
	// 0→2 carries party 0's input share (party 1 draws its own), so party
	// 2 starves in the input round; link 1→0 carries only party 1's
	// opening row, so party 0 starves in the opening.
	for _, link := range [][2]int{{0, 2}, {1, 0}} {
		// Traced as a session is: the engine's recorder is an info-level
		// log wrapped with the coordinator's stream, so every party's link
		// stamps its frames into the party's stream, where the mesh
		// records the faults it injects.
		tc := obs.NewTraceContext(1, 3)
		mesh := transport.NewFaultMesh(transport.NewChanMesh(3), transport.FaultProfile{
			Seed:  1,
			Links: map[[2]int]transport.LinkFault{link: {DropProb: 1}},
		}, tc)
		var log bytes.Buffer
		eng, err := NewActorEngine(Config{
			Parties:     3,
			Seed:        7,
			RecvTimeout: 50 * time.Millisecond,
			Recorder:    tc.Coordinator().Wrap(obs.NewLog(&log, "text", obs.LevelInfo)),
		}, mesh)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })

		done := make(chan int64, 1)
		go func() { done <- eng.Open(eng.Input(0, 42)) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("link %d→%d: protocol hung despite RecvTimeout", link[0], link[1])
		}
		if err := eng.Err(); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("link %d→%d: engine error = %v, want errors.Is(err, transport.ErrTimeout)", link[0], link[1], err)
		}
		// The expiry is counted where it is latched: one bgw.party.failed.
		if got := strings.Count(log.String(), "bgw.party.failed"); got != 1 || !strings.Contains(log.String(), transport.ErrTimeout.Error()) {
			t.Fatalf("link %d→%d: log has %d bgw.party.failed events, want 1 naming the timeout:\n%s", link[0], link[1], got, log.String())
		}
		// The run's debug-level transport.send events are in the streams,
		// and not in the info-level log.
		sends := 0
		for _, pt := range tc.Streams() {
			for _, ev := range pt.Flight().Events() {
				if ev.Name == "transport.send" && ev.Level == int8(obs.LevelDebug) {
					sends++
				}
			}
		}
		if sends == 0 || strings.Contains(log.String(), "transport.send") {
			t.Fatalf("link %d→%d: %d debug-level transport.send events in the streams, want some, and none in the info-level log:\n%s", link[0], link[1], sends, log.String())
		}
		// The sender's stream holds the drop, and a survivor's the rows it
		// took: with 1→0 lossy, party 2 still took party 0's input row.
		if !hasEvent(tc.Party(link[0]), "transport.fault.drop", link[1]) {
			t.Errorf("link %d→%d: party %d's stream has no transport.fault.drop", link[0], link[1], link[0])
		}
		if link == [2]int{1, 0} && !hasEvent(tc.Party(2), "transport.recv", 0) {
			t.Errorf("link 1→0: survivor party 2's stream has no transport.recv from party 0")
		}
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

// TestActorCutWithGatesInFlightLatchesErr: a run of scalar gates, which
// the parties may still be working through, is followed by an input
// whose frame vanishes behind a cut link. The starved party must time
// out, the engine must latch the typed error, and everything after —
// gates in flight, new gates, every kind of opening — must return
// handles and zeros without ever blocking the caller.
func TestActorCutWithGatesInFlightLatchesErr(t *testing.T) {
	// Link 0→2 carries one message (the first input share) and then
	// black-holes: the second input's share never reaches party 2. (At
	// P = 3, t = 1 party 1 draws party 0's shares, so link 0→1 carries
	// none.)
	mesh := transport.NewFaultMesh(transport.NewChanMesh(3), transport.FaultProfile{
		Seed:  1,
		Links: map[[2]int]transport.LinkFault{{0, 2}: {CutAfter: 1}},
	}, nil)
	// An info-level recorder: the engine's debug events stay off, its
	// failure event does not.
	var log bytes.Buffer
	eng, err := NewActorEngine(Config{
		Parties:     3,
		Seed:        7,
		RecvTimeout: 50 * time.Millisecond,
		Recorder:    obs.NewLog(&log, "text", obs.LevelInfo),
	}, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	type result struct {
		open  int64
		batch []int64
		vec   []int64
	}
	done := make(chan result, 1)
	go func() {
		var r result
		a := eng.Input(0, 42)
		acc := eng.Zero()
		for i := 0; i < 20; i++ {
			acc = eng.Add(acc, eng.MulConst(a, int64(i)))
		}
		b := eng.Input(0, 7) // its share to party 2 is cut
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
		t.Fatal("protocol hung behind a cut link with gates in flight")
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
