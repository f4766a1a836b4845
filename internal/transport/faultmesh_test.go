package transport

import (
	"errors"
	"testing"
	"time"
)

// TestFaultMeshPassthrough: a zero profile must be a transparent proxy.
func TestFaultMeshPassthrough(t *testing.T) {
	fm := NewFaultMesh(NewChanMesh(3), FaultProfile{}, nil)
	defer fm.Close()
	if err := fm.Conn(0).Send(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got, err := fm.Conn(1).Recv(0)
	if err != nil || string(got) != "ok" {
		t.Fatalf("Recv = %q, %v; want \"ok\", nil", got, err)
	}
	if s := fm.Injected(); s != (FaultStats{}) {
		t.Fatalf("zero profile injected faults: %+v", s)
	}
}

// TestFaultMeshDropDeterminism: the same seed must drop exactly the
// same message indices on every run.
func TestFaultMeshDropDeterminism(t *testing.T) {
	run := func(seed uint64) []int {
		fm := NewFaultMesh(NewChanMesh(2), FaultProfile{
			Seed: seed,
			All:  LinkFault{DropProb: 0.5},
		}, nil)
		defer fm.Close()
		fm.SetRecvTimeout(20 * time.Millisecond)
		var delivered []int
		for i := 0; i < 40; i++ {
			if err := fm.Conn(0).Send(1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			b, err := fm.Conn(1).Recv(0)
			switch {
			case err == nil:
				delivered = append(delivered, int(b[0]))
			case errors.Is(err, ErrTimeout):
				// dropped
			default:
				t.Fatal(err)
			}
		}
		if s := fm.Injected(); int(s.Drops)+len(delivered) != 40 {
			t.Fatalf("drops %d + delivered %d != 40", s.Drops, len(delivered))
		}
		return delivered
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 40 {
		t.Fatalf("degenerate drop pattern: %d/40 delivered", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic drops: %d vs %d delivered", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if c := run(1234); len(c) == len(a) {
		// Different seeds *may* coincide in count; require the actual
		// sequences to differ to confirm the seed is wired through.
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical drop patterns")
		}
	}
}

// TestFaultMeshCut: the link dies after exactly CutAfter deliveries.
func TestFaultMeshCut(t *testing.T) {
	fm := NewFaultMesh(NewChanMesh(2), FaultProfile{
		Links: map[[2]int]LinkFault{{0, 1}: {CutAfter: 3}},
	}, nil)
	defer fm.Close()
	fm.SetRecvTimeout(20 * time.Millisecond)
	for i := 0; i < 6; i++ {
		if err := fm.Conn(0).Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		b, err := fm.Conn(1).Recv(0)
		if err != nil || int(b[0]) != i {
			t.Fatalf("delivery %d: got %v, %v", i, b, err)
		}
	}
	if _, err := fm.Conn(1).Recv(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("post-cut Recv = %v, want ErrTimeout", err)
	}
	// The reverse link is unaffected.
	if err := fm.Conn(1).Send(0, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if b, err := fm.Conn(0).Recv(1); err != nil || string(b) != "back" {
		t.Fatalf("reverse link: got %q, %v", b, err)
	}
	if s := fm.Injected(); s.Cuts != 3 {
		t.Fatalf("Cuts = %d, want 3", s.Cuts)
	}
}

// TestFaultMeshDelay: delayed messages arrive late, in order.
func TestFaultMeshDelay(t *testing.T) {
	const delay = 30 * time.Millisecond
	fm := NewFaultMesh(NewChanMesh(2), FaultProfile{
		Links: map[[2]int]LinkFault{{0, 1}: {Delay: delay}},
	}, nil)
	defer fm.Close()
	start := time.Now()
	fm.Conn(0).Send(1, []byte("a"))
	fm.Conn(0).Send(1, []byte("b"))
	for _, want := range []string{"a", "b"} {
		b, err := fm.Conn(1).Recv(0)
		if err != nil || string(b) != want {
			t.Fatalf("got %q, %v; want %q", b, err, want)
		}
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delivery after %v, want >= %v", elapsed, delay)
	}
	if s := fm.Injected(); s.Delays != 2 {
		t.Fatalf("Delays = %d, want 2", s.Delays)
	}

	// Delay is latency, not bandwidth: k frames sent back to back are in
	// flight together, so the last arrives about one Delay after the
	// first was sent, not k Delays.
	const k = 5
	fm = NewFaultMesh(NewChanMesh(2), FaultProfile{
		Links: map[[2]int]LinkFault{{0, 1}: {Delay: delay}},
	}, nil)
	defer fm.Close()
	start = time.Now()
	for i := 0; i < k; i++ {
		fm.Conn(0).Send(1, []byte{byte(i)})
	}
	for i := 0; i < k; i++ {
		b, err := fm.Conn(1).Recv(0)
		if err != nil || len(b) != 1 || b[0] != byte(i) {
			t.Fatalf("frame %d: got %v, %v", i, b, err)
		}
	}
	if elapsed := time.Since(start); elapsed < delay || elapsed >= 2*delay {
		t.Fatalf("%d back-to-back frames delivered after %v, want in [%v, %v)", k, elapsed, delay, 2*delay)
	}
}

// TestFaultMeshCrash: a crashed party sees only ErrClosed and its
// blocked peers fail instead of hanging.
func TestFaultMeshCrash(t *testing.T) {
	fm := NewFaultMesh(NewChanMesh(3), FaultProfile{}, nil)
	defer fm.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := fm.Conn(0).Recv(2)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	fm.Crash(2)
	fm.Crash(2) // idempotent
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("peer of crashed party got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer still blocked after crash")
	}
	if err := fm.Conn(2).Send(0, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("crashed Send = %v, want ErrClosed", err)
	}
	if _, err := fm.Conn(2).Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("crashed Recv = %v, want ErrClosed", err)
	}
	if s := fm.Injected(); s.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", s.Crashes)
	}
	// Links not touching the crashed party keep working.
	if err := fm.Conn(0).Send(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if b, err := fm.Conn(1).Recv(0); err != nil || string(b) != "ok" {
		t.Fatalf("survivor link: got %q, %v", b, err)
	}
}

// TestFaultMeshCrashAfterSends: the scripted crash budget kills the
// party at a deterministic point in its send sequence.
func TestFaultMeshCrashAfterSends(t *testing.T) {
	fm := NewFaultMesh(NewChanMesh(2), FaultProfile{
		CrashAfterSends: map[int]int{0: 2},
	}, nil)
	defer fm.Close()
	if err := fm.Conn(0).Send(1, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := fm.Conn(0).Send(1, []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := fm.Conn(0).Send(1, []byte("3")); !errors.Is(err, ErrClosed) {
		t.Fatalf("third send = %v, want ErrClosed (crash budget spent)", err)
	}
	if s := fm.Injected(); s.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", s.Crashes)
	}
}

// TestDeadFramesGoBackToTheFreeList: Send owns its payload whether or
// not the frame is delivered, so a frame that dies in the transport — a
// ChanMesh refusing the push, a FaultMesh dropping or cutting it, a
// crashed party's, a delayed frame the wrapped mesh refuses, a closed TCP
// link's — hands its buffer back at once. The free list is a stack per
// class, so the next GetPayload of the class returns that very buffer.
func TestDeadFramesGoBackToTheFreeList(t *testing.T) {
	const n = 3000 // a class of its own among these tests' frames
	cases := []struct {
		name string
		mesh func(t *testing.T) Mesh
		prep func(m Mesh) // before the doomed send
	}{
		{"chan-refused", func(*testing.T) Mesh { return NewChanMesh(2) },
			func(m Mesh) { m.Conn(1).Close() }},
		{"fault-drop", func(*testing.T) Mesh {
			return NewFaultMesh(NewChanMesh(2), FaultProfile{All: LinkFault{DropProb: 1}}, nil)
		}, func(Mesh) {}},
		{"fault-cut", func(*testing.T) Mesh {
			return NewFaultMesh(NewChanMesh(2), FaultProfile{All: LinkFault{CutAfter: 1}}, nil)
		}, func(m Mesh) { m.Conn(0).Send(1, []byte("allowed")) }},
		{"fault-crash", func(*testing.T) Mesh {
			return NewFaultMesh(NewChanMesh(2), FaultProfile{}, nil)
		}, func(m Mesh) { m.(*FaultMesh).Crash(0) }},
		{"fault-delay-refused", func(*testing.T) Mesh {
			return NewFaultMesh(NewChanMesh(2), FaultProfile{All: LinkFault{Delay: time.Millisecond}}, nil)
		}, func(m Mesh) { m.Conn(1).Close() }},
		{"tcp-closed", func(t *testing.T) Mesh {
			m, err := NewTCPMesh(2)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, func(m Mesh) { m.Conn(0).Close() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.mesh(t)
			c.prep(m)
			b := GetPayload(n)
			dead := &b[0]
			m.Conn(0).Send(1, b)
			// Closing joins a delayed frame's forwarder, which hands the
			// frame to the wrapped mesh at its due time.
			m.Close()
			got := GetPayload(n)
			defer recycle(got)
			if &got[0] != dead {
				t.Fatalf("the dead frame's buffer did not go back to the free list")
			}
		})
	}
}
