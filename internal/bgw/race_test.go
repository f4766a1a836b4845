package bgw

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sqm/internal/transport"
)

// bigBatch runs one large mixed MulBatch plus a DotBatch on an inline
// engine whose parties split their products over chunks goroutines, and
// opens everything — wide enough that every chunk owns several gates,
// so the chunked path is actually exercised (and raced) when chunks > 1.
// It returns the engine and the opened values.
func bigBatch(t *testing.T, chunks int) (*Engine, []int64) {
	t.Helper()
	ev, err := NewEngine(Config{Parties: 4, Seed: 99})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, pa := range ev.parties {
		pa.chunks = chunks
	}

	var scalars []Val
	for i := 0; i < 8; i++ {
		scalars = append(scalars, ev.Input(i%4, int64(i*i)-31))
	}
	u := ev.InputVec(0, []int64{3, -1, 4, 1, -5, 9, 2, -6})
	v := ev.InputVec(1, []int64{-2, 7, 1, -8, 2, 8, -1, 8})

	var items []MulItem
	for i := 0; i < 64; i++ {
		switch i % 4 {
		case 0:
			items = append(items, MulItem{Kind: MulScalar, A: scalars[i%8], B: scalars[(i+3)%8]})
		case 1:
			items = append(items, MulItem{Kind: MulInner,
				As: []Val{scalars[i%8], scalars[(i+1)%8], scalars[(i+2)%8]},
				Bs: []Val{scalars[(i+5)%8], scalars[(i+6)%8], scalars[(i+7)%8]}})
		case 2:
			items = append(items, MulItem{Kind: MulDot, VA: u, VB: v})
		case 3:
			items = append(items, MulItem{Kind: MulHadamard, VA: u, VB: v})
		}
	}
	var outs []Val
	var hadamards []Vec
	for _, out := range ev.MulBatch(items) {
		if h, ok := out.(Vec); ok {
			hadamards = append(hadamards, h)
		} else {
			outs = append(outs, out)
		}
	}
	dots := ev.DotBatch([]VecPair{{A: u, B: v}, {A: u, B: u}, {A: v, B: v}}, 0)

	res := ev.OpenBatch(outs)
	for _, d := range dots {
		res = append(res, ev.Open(d))
	}
	for _, h := range hadamards {
		res = append(res, ev.OpenVec(h)...)
	}
	if err := ev.Err(); err != nil {
		t.Fatalf("chunks=%d: %v", chunks, err)
	}
	return ev, res
}

// TestMonoWorkerPoolDifferentialRace: the pool width is the driver's
// choice, not an option, so this sets the parties' chunk count from
// inside the package. Every width must leave every party with the same
// slots, element for element, and open the same values as the serial
// run; 16 chunks force the concurrent path even on a single-CPU
// machine, so -race sweeps the goroutine interleavings.
func TestMonoWorkerPoolDifferentialRace(t *testing.T) {
	serial, want := bigBatch(t, 1)
	for _, chunks := range []int{2, 3, 16} {
		eng, got := bigBatch(t, chunks)
		if !equalInt64(got, want) {
			t.Errorf("chunks=%d opened %v, serial %v", chunks, got, want)
		}
		if diff := slotDiff(serial, eng); diff != "" {
			t.Errorf("chunks=%d: %s", chunks, diff)
		}
		if gs, ss := eng.Stats(), serial.Stats(); gs != ss {
			t.Errorf("chunks=%d stats %+v, serial %+v", chunks, gs, ss)
		}
	}
}

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
// delaying every link, and demands the inline engine's exact openings. The delay forwarders make frame lifetimes genuinely
// concurrent with the party goroutines, so -race catches any pooled
// buffer recycled while still in flight.
func TestActorWorkerPoolChaosRace(t *testing.T) {
	mono, err := NewEngine(Config{Parties: 4, Seed: 123})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	want := evalProgram(t, Eval(mono))

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

// TestActorCloseNoGoroutineLeak: Close must join the party actors, the
// chaos mesh's delay forwarders, and any worker-pool goroutines —
// repeated sessions must not accrete anything.
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
