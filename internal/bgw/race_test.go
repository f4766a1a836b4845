package bgw

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sqm/internal/transport"
)

// slotDiff compares every party's scalar and vector share slots of two
// engines element for element and describes the first difference.
func slotDiff(a, b *Engine) string {
	for i, pa := range a.parties {
		pb := b.parties[i]
		if len(pa.sc) != len(pb.sc) || len(pa.vc) != len(pb.vc) {
			return fmt.Sprintf("party %d holds %d scalars / %d vectors vs %d / %d",
				i, len(pa.sc), len(pa.vc), len(pb.sc), len(pb.vc))
		}
		for k := range pa.sc {
			if pa.sc[k] != pb.sc[k] {
				return fmt.Sprintf("party %d scalar slot %d differs", i, k)
			}
		}
		for k := range pa.vc {
			if len(pa.vc[k]) != len(pb.vc[k]) {
				return fmt.Sprintf("party %d vector slot %d has %d vs %d elements", i, k, len(pa.vc[k]), len(pb.vc[k]))
			}
			for j := range pa.vc[k] {
				if pa.vc[k][j] != pb.vc[k][j] {
					return fmt.Sprintf("party %d vector slot %d element %d differs", i, k, j)
				}
			}
		}
	}
	return ""
}

// TestActorWorkerPoolChaosRace runs the full evaluator program on
// goroutine parties — pooled transport frames — over a FaultMesh
// delaying every link, and demands NewEngine's exact openings. The delay
// forwarders make frame lifetimes genuinely concurrent with the party
// goroutines, so -race catches any pooled buffer recycled while still in
// flight.
func TestActorWorkerPoolChaosRace(t *testing.T) {
	want := evalProgram(t, newActorChan(t, Config{Parties: 4, Seed: 123}))

	mesh := transport.NewFaultMesh(transport.NewChanMesh(4), transport.FaultProfile{
		Seed: 5,
		All:  transport.LinkFault{Delay: 50 * time.Microsecond},
	})
	eng, err := NewActorEngine(Config{Parties: 4, Seed: 123}, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	defer eng.Close()
	got := evalProgram(t, eng)
	if err := eng.Err(); err != nil {
		t.Fatalf("engine failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("actor opened %d values, mono %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("actor output %d = %d, mono %d", i, got[i], want[i])
		}
	}
	if inj := mesh.Injected(); inj.Delays == 0 {
		t.Errorf("chaos profile injected no delays: %+v", inj)
	}
}

// TestActorCloseNoGoroutineLeak: Close must join the party actors and
// the chaos mesh's delay forwarders — repeated sessions must not accrete
// anything.
func TestActorCloseNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		mesh := transport.NewFaultMesh(transport.NewChanMesh(4), transport.FaultProfile{
			Seed: uint64(iter),
			All:  transport.LinkFault{Delay: 20 * time.Microsecond},
		})
		eng, err := NewActorEngine(Config{Parties: 4, Seed: uint64(iter)}, mesh)
		if err != nil {
			t.Fatalf("NewActorEngine: %v", err)
		}
		evalProgram(t, eng)
		if err := eng.Err(); err != nil {
			t.Fatalf("engine failed: %v", err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails the test unless the goroutine count settles back
// to base within five seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after Close: %d live, %d at baseline\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
