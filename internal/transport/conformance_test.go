package transport

import (
	"errors"
	"testing"
	"time"
)

// TestConformanceClosedErr pins the close-error contract across every
// mesh implementation: no matter how a link dies — whole-mesh close,
// peer close, own close, before or during a blocked receive — the
// failing operation must satisfy errors.Is(err, ErrClosed). Callers
// branch on exactly this predicate to tell a dead peer from a slow one,
// so a mesh that leaks a raw EOF or io.ErrClosedPipe here turns a typed
// abort into an untyped one.
func TestConformanceClosedErr(t *testing.T) {
	const p = 3
	paths := []struct {
		name string
		run  func(t *testing.T, mesh Mesh) error
	}{
		{"mesh-close-then-recv", func(t *testing.T, mesh Mesh) error {
			mesh.Close()
			_, err := mesh.Conn(0).Recv(1)
			return err
		}},
		{"recv-blocked-then-mesh-close", func(t *testing.T, mesh Mesh) error {
			errc := make(chan error, 1)
			go func() {
				_, err := mesh.Conn(0).Recv(1)
				errc <- err
			}()
			time.Sleep(10 * time.Millisecond)
			mesh.Close()
			select {
			case err := <-errc:
				return err
			case <-time.After(2 * time.Second):
				t.Fatal("Recv still blocked after mesh close")
				return nil
			}
		}},
		{"recv-blocked-then-peer-close", func(t *testing.T, mesh Mesh) error {
			errc := make(chan error, 1)
			go func() {
				_, err := mesh.Conn(0).Recv(1)
				errc <- err
			}()
			time.Sleep(10 * time.Millisecond)
			mesh.Conn(1).Close()
			select {
			case err := <-errc:
				return err
			case <-time.After(2 * time.Second):
				t.Fatal("Recv still blocked after peer close")
				return nil
			}
		}},
		{"own-close-then-recv", func(t *testing.T, mesh Mesh) error {
			mesh.Conn(0).Close()
			_, err := mesh.Conn(0).Recv(1)
			return err
		}},
		{"own-close-then-send", func(t *testing.T, mesh Mesh) error {
			mesh.Conn(0).Close()
			if err := mesh.Conn(0).Send(1, []byte("x")); err != nil {
				return err
			}
			// A socket mesh's writer pump may only observe the dead
			// connection asynchronously; the contract is that the
			// failure surfaces as ErrClosed within a bounded number of
			// sends, not necessarily on the first.
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if err := mesh.Conn(0).Send(1, []byte("x")); err != nil {
					return err
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatal("Send never failed after own close")
			return nil
		}},
	}
	for _, path := range paths {
		for name, mesh := range meshes(t, p) {
			mesh := mesh
			t.Run(path.name+"/"+name, func(t *testing.T) {
				defer mesh.Close()
				err := path.run(t, mesh)
				if err == nil {
					t.Fatal("expected an error, got nil")
				}
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("got %v (%T), want errors.Is(err, ErrClosed)", err, err)
				}
			})
		}
		// The chaos decorator must preserve the same contract.
		t.Run(path.name+"/fault-chan", func(t *testing.T) {
			mesh := NewFaultMesh(NewChanMesh(p), FaultProfile{}, nil)
			defer mesh.Close()
			err := path.run(t, mesh)
			if err == nil {
				t.Fatal("expected an error, got nil")
			}
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("got %v (%T), want errors.Is(err, ErrClosed)", err, err)
			}
		})
	}
}

// TestConformanceRecvTimeout pins the deadline contract across meshes:
// a receive with no pending message fails with ErrTimeout (never
// ErrClosed — the peer is alive, just slow), a queued message beats the
// deadline, and disabling the timeout restores blocking receives.
func TestConformanceRecvTimeout(t *testing.T) {
	const p = 2
	for name, mesh := range meshes(t, p) {
		mesh := mesh
		t.Run(name, func(t *testing.T) {
			defer mesh.Close()
			conn := mesh.Conn(0)
			conn.SetRecvTimeout(30 * time.Millisecond)
			start := time.Now()
			_, err := conn.Recv(1)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("got %v, want errors.Is(err, ErrTimeout)", err)
			}
			if errors.Is(err, ErrClosed) {
				t.Fatal("timeout must not satisfy ErrClosed")
			}
			if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
				t.Fatalf("deadline fired after %v, want >= ~30ms", elapsed)
			}

			// A message that is already queued is delivered, not timed out.
			if err := mesh.Conn(1).Send(0, []byte("hi")); err != nil {
				t.Fatal(err)
			}
			got, err := conn.Recv(1)
			if err != nil || string(got) != "hi" {
				t.Fatalf("Recv = %q, %v; want \"hi\", nil", got, err)
			}

			// Disabling the deadline restores blocking semantics.
			conn.SetRecvTimeout(0)
			done := make(chan struct{})
			go func() {
				mesh.Conn(1).Send(0, []byte("later"))
				close(done)
			}()
			got, err = conn.Recv(1)
			<-done
			if err != nil || string(got) != "later" {
				t.Fatalf("Recv = %q, %v; want \"later\", nil", got, err)
			}
		})
	}
}

// TestRecvTimeoutCounter: an expired receive deadline is an error, not
// traffic: a frame sent after the expiry is delivered, once.
func TestRecvTimeoutCounter(t *testing.T) {
	for name, mesh := range meshes(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer mesh.Close()
			conn := mesh.Conn(0)
			conn.SetRecvTimeout(5 * time.Millisecond)
			if _, err := conn.Recv(1); !errors.Is(err, ErrTimeout) {
				t.Fatalf("got %v, want ErrTimeout", err)
			}
			if err := mesh.Conn(1).Send(0, []byte("late")); err != nil {
				t.Fatal(err)
			}
			conn.SetRecvTimeout(0)
			if got, err := conn.Recv(1); err != nil || string(got) != "late" {
				t.Fatalf("Recv = %q, %v; want \"late\", nil", got, err)
			}
		})
	}
}
