package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// meshes returns one fresh instance of every Mesh implementation,
// keyed by name, so every behavioral test runs against both.
func meshes(t *testing.T, p int) map[string]Mesh {
	t.Helper()
	tcp, err := NewTCPMesh(p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Mesh{"chan": NewChanMesh(p), "tcp": tcp}
}

func TestMeshExchange(t *testing.T) {
	const p = 4
	for name, mesh := range meshes(t, p) {
		t.Run(name, func(t *testing.T) {
			defer mesh.Close()
			// Every party sends one tagged payload to every other party,
			// then receives from every peer and checks the tag.
			var wg sync.WaitGroup
			errs := make([]error, p)
			for i := 0; i < p; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn := mesh.Conn(i)
					for j := 0; j < p; j++ {
						if j == i {
							continue
						}
						if err := conn.Send(j, []byte(fmt.Sprintf("%d->%d", i, j))); err != nil {
							errs[i] = err
							return
						}
					}
					for j := 0; j < p; j++ {
						if j == i {
							continue
						}
						got, err := conn.Recv(j)
						if err != nil {
							errs[i] = err
							return
						}
						if want := fmt.Sprintf("%d->%d", j, i); string(got) != want {
							errs[i] = fmt.Errorf("party %d got %q from %d, want %q", i, got, j, want)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("party %d: %v", i, err)
				}
			}
		})
	}
}

func TestMeshFIFOPerPair(t *testing.T) {
	const n = 200
	for name, mesh := range meshes(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer mesh.Close()
			done := make(chan error, 1)
			go func() {
				conn := mesh.Conn(1)
				for k := 0; k < n; k++ {
					got, err := conn.Recv(0)
					if err != nil {
						done <- err
						return
					}
					if string(got) != fmt.Sprintf("m%d", k) {
						done <- fmt.Errorf("message %d arrived as %q", k, got)
						return
					}
				}
				done <- nil
			}()
			sender := mesh.Conn(0)
			for k := 0; k < n; k++ {
				if err := sender.Send(1, []byte(fmt.Sprintf("m%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMeshSendNeverBlocks(t *testing.T) {
	// The deadlock-freedom contract: a party may send arbitrarily far
	// ahead of a receiver that has not started reading.
	for name, mesh := range meshes(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer mesh.Close()
			conn := mesh.Conn(0)
			payload := make([]byte, 1024)
			for k := 0; k < 500; k++ {
				if err := conn.Send(1, payload); err != nil {
					t.Fatal(err)
				}
			}
			// Drain a few to prove delivery still works.
			rx := mesh.Conn(1)
			for k := 0; k < 500; k++ {
				if _, err := rx.Recv(0); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestMeshCloseUnblocksRecv(t *testing.T) {
	for name, mesh := range meshes(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer mesh.Close()
			done := make(chan error, 1)
			go func() {
				_, err := mesh.Conn(1).Recv(0)
				done <- err
			}()
			if err := mesh.Conn(0).Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err == nil {
				t.Fatal("Recv from a closed peer must fail")
			}
			// Sends to / from the dead endpoint fail from now on.
			if err := mesh.Conn(0).Send(1, []byte("x")); err == nil {
				t.Fatal("Send on a closed endpoint must fail")
			}
		})
	}
}

func TestMeshCloseIsIdempotent(t *testing.T) {
	for name, mesh := range meshes(t, 3) {
		t.Run(name, func(t *testing.T) {
			if err := mesh.Close(); err != nil {
				t.Fatal(err)
			}
			if err := mesh.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if _, err := mesh.Conn(0).Recv(1); err == nil {
				t.Fatal("Recv after mesh Close must fail")
			}
		})
	}
}

func TestChanMeshClosedErrIsErrClosed(t *testing.T) {
	mesh := NewChanMesh(3)
	mesh.Close()
	if _, err := mesh.Conn(0).Recv(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := mesh.Conn(0).Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestNetMeshTeardownIsErrClosed pins the uniform failure mode: after a
// peer tears down, the socket mesh's raw EOF/reset errors must be
// recognizable as transport.ErrClosed, exactly like the channel mesh.
func TestNetMeshTeardownIsErrClosed(t *testing.T) {
	mesh, err := NewTCPMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	done := make(chan error, 1)
	go func() {
		_, err := mesh.Conn(1).Recv(0)
		done <- err
	}()
	if err := mesh.Conn(0).Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after peer teardown = %v, want errors.Is(err, ErrClosed)", err)
	}
	// A Recv issued after the teardown fails the same way.
	if _, err := mesh.Conn(2).Recv(0); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("late Recv = %v, want ErrClosed (or delivery)", err)
	}
}

func TestWrapClosed(t *testing.T) {
	cases := []struct {
		in     error
		closed bool
	}{
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{fmt.Errorf("read: %w", io.EOF), true},
		{ErrClosed, true},
		{errors.New("protocol violation"), false},
	}
	for _, c := range cases {
		got := wrapClosed(c.in)
		if errors.Is(got, ErrClosed) != c.closed {
			t.Errorf("wrapClosed(%v): ErrClosed match = %v, want %v", c.in, !c.closed, c.closed)
		}
		if c.in != ErrClosed && !errors.Is(got, c.in) {
			t.Errorf("wrapClosed(%v) lost the cause", c.in)
		}
	}
	if wrapClosed(nil) != nil {
		t.Error("wrapClosed(nil) != nil")
	}
}

// TestChanMeshCostsTheSameAllocationsAtAnySize: the queues, the
// endpoints and their held frames are one array each, so a mesh of ten
// parties costs no more allocations than one of four.
func TestChanMeshCostsTheSameAllocationsAtAnySize(t *testing.T) {
	allocs := func(p int) float64 {
		return testing.AllocsPerRun(20, func() { NewChanMesh(p) })
	}
	small, large := allocs(4), allocs(10)
	t.Logf("NewChanMesh: %.0f allocations at P = 4, %.0f at P = 10", small, large)
	if small != large {
		t.Errorf("NewChanMesh costs %.0f allocations at P = 4 and %.0f at P = 10, want the same", small, large)
	}
}

// TestQueueReusesItsArrayAndDropsPoppedFrames: the FIFO behind ChanMesh
// and the NetMesh writers keeps one backing array across bursts — a
// burst drained empty starts the next at the front — and no slot of it
// still holds a frame the receiver has taken. A queue that never drains
// moves its waiting frames down instead of growing past them.
func TestQueueReusesItsArrayAndDropsPoppedFrames(t *testing.T) {
	q := newQueue[[]byte]()
	const burst = 40
	var first *[]byte
	for round := 0; round < 5; round++ {
		for i := 0; i < burst; i++ {
			if err := q.push([]byte{byte(round), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			first = &q.items[:1][0]
		} else if &q.items[:1][0] != first {
			t.Fatalf("burst %d: the queue regrew its array", round)
		}
		for i := 0; i < burst; i++ {
			b, err := q.pop()
			if err != nil {
				t.Fatal(err)
			}
			if b[0] != byte(round) || b[1] != byte(i) {
				t.Fatalf("burst %d: popped %v, want [%d %d]", round, b, round, i)
			}
			for k, slot := range q.items[:q.head] {
				if slot != nil {
					t.Fatalf("burst %d: slot %d still holds a popped frame", round, k)
				}
			}
		}
		for k, slot := range q.items[:cap(q.items)] {
			if slot != nil {
				t.Fatalf("burst %d: drained queue's slot %d still holds a frame", round, k)
			}
		}
	}

	// A queue that never drains: three frames always waiting.
	next, want := 0, 0
	for ; next < 3; next++ {
		q.push([]byte{byte(next)})
	}
	size := cap(q.items)
	for i := 0; i < 10*size; i++ {
		q.push([]byte{byte(next)})
		next++
		b, err := q.pop()
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != byte(want) {
			t.Fatalf("popped %d, want %d", b[0], byte(want))
		}
		want++
	}
	if cap(q.items) != size {
		t.Errorf("three frames waiting, and the array grew from %d to %d", size, cap(q.items))
	}
}

// TestClosedQueueDeliversWhatItHolds: a closed queue refuses pushes but
// hands out every item it held, in order, before it reports ErrClosed —
// the frames of a TCP writer pump and a FaultMesh link's frames in
// flight alike.
func TestClosedQueueDeliversWhatItHolds(t *testing.T) {
	q := newQueue[inFlight]()
	for i := 1; i <= 3; i++ {
		if err := q.push(inFlight{payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	q.close()
	if err := q.push(inFlight{payload: []byte{4}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	for i := 1; i <= 3; i++ {
		f, err := q.pop()
		if err != nil || len(f.payload) != 1 || f.payload[0] != byte(i) {
			t.Fatalf("pop %d after close: %+v, %v", i, f, err)
		}
	}
	if f, err := q.pop(); !errors.Is(err, ErrClosed) || f.payload != nil {
		t.Fatalf("pop of a drained closed queue: %+v, %v; want the zero item and ErrClosed", f, err)
	}
	if _, err := q.popWait(time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("timed pop of a drained closed queue: %v, want ErrClosed", err)
	}
}
