package bgw

import (
	"runtime"
	"testing"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/transport"
)

// TestActorCloseWithQueuedGates: Close on an engine whose queue still
// holds scalar gates drops them and joins every party goroutine.
func TestActorCloseWithQueuedGates(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		eng, err := NewActorEngine(Config{Parties: 4, Seed: uint64(iter)}, transport.NewChanMesh(4))
		if err != nil {
			t.Fatalf("NewActorEngine: %v", err)
		}
		a := eng.Input(0, 5)
		acc := eng.Zero()
		for i := 0; i < 10+iter; i++ {
			acc = eng.Add(acc, a)
		}
		if len(eng.queue) == 0 {
			t.Fatal("no gate left in the queue before Close")
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if got := eng.Open(acc); got != 0 {
			t.Errorf("Open after Close = %d, want 0", got)
		}
	}
	waitGoroutines(t, base)
}

// localGateProgram opens one value, records gates scalar local gates of
// every queued kind, and opens the running results: with gates well
// past three command chunks the parties consume several full batches
// and a partial one between the two openings.
func localGateProgram(ev Evaluator, gates int) []int64 {
	a := ev.Input(0, 37)
	b := ev.Input(1, -12)
	v := ev.InputVec(2, []int64{4, -9, 2})
	ev.AdvanceRound()
	out := []int64{ev.Open(ev.Add(a, b))}
	x, y, z := a, b, ev.Zero()
	for i := 0; i < gates; i++ {
		switch i % 6 {
		case 0:
			x = ev.Add(x, y)
		case 1:
			y = ev.Sub(y, ev.At(v, i%3))
		case 2:
			z = ev.AddConst(z, int64(i))
		case 3:
			x = ev.MulConst(x, int64(i%3-1))
		case 4:
			z = ev.Add(z, ev.Zero())
		case 5:
			y = ev.Add(y, x)
		}
	}
	return append(out, ev.OpenBatch([]Val{x, y, z})...)
}

// TestActorFullBatchesMatchMonolithic: the chunked command stream is
// invisible in the outputs — several full batches of queued gates
// between two openings open exactly what the monolithic engine opens.
func TestActorFullBatchesMatchMonolithic(t *testing.T) {
	const gates = 3*cmdChunk + 41
	mono, err := NewEngine(Config{Parties: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want := localGateProgram(Eval(mono), gates)
	for name, eng := range map[string]*Engine{
		"actor":     newActorChan(t, Config{Parties: 4, Seed: 21}),
		"actor-net": newActorTCP(t, Config{Parties: 4, Seed: 21}),
	} {
		got := localGateProgram(eng, gates)
		if err := eng.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalInt64(got, want) {
			t.Errorf("%s opened %v, monolithic %v", name, got, want)
		}
		if ms, as := mono.Stats(), eng.Stats(); ms != as {
			t.Errorf("%s stats %+v, monolithic %+v", name, as, ms)
		}
	}
}

// TestInputBatchAcrossEngines is the cross-engine property of the
// batched input round: for random owner assignments the monolithic,
// channel-actor and TCP-actor engines agree on every counter, the round
// costs one frame per (owner, peer) pair, messages/bytes/FieldOps equal
// the per-scalar Input path, and the opened values are the inputs.
func TestInputBatchAcrossEngines(t *testing.T) {
	const p = 5
	g := randx.New(20250929)
	for trial := 0; trial < 12; trial++ {
		// Draw from a random subset of owners so some parties own nothing.
		var pool []int
		for len(pool) == 0 {
			for i := 0; i < p; i++ {
				if g.IntN(2) == 0 {
					pool = append(pool, i)
				}
			}
		}
		items := make([]InputItem, 1+g.IntN(40))
		want := make([]int64, len(items))
		distinct := map[int]bool{}
		for i := range items {
			want[i] = int64(g.IntN(2_000_001)) - 1_000_000
			items[i] = InputItem{Owner: pool[g.IntN(len(pool))], Elem: field.FromInt64(want[i])}
			distinct[items[i].Owner] = true
		}
		cfg := Config{Parties: p, Seed: uint64(trial)}
		engines := func() map[string]Evaluator {
			mono, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return map[string]Evaluator{"bgw": Eval(mono), "actor": newActorChan(t, cfg), "actor-net": newActorTCP(t, cfg)}
		}

		var ref Stats
		for name, ev := range engines() {
			got := ev.OpenBatch(ev.InputBatch(items))
			if err := ev.Err(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !equalInt64(got, want) {
				t.Fatalf("trial %d %s: opened %v, want %v", trial, name, got, want)
			}
			st := ev.Stats()
			if wantFrames := int64(len(distinct)*(p-1) + p*(p-1)); st.Frames != wantFrames {
				t.Errorf("trial %d %s: %d frames, want %d owners·(P−1) + P(P−1) = %d",
					trial, name, st.Frames, len(distinct), wantFrames)
			}
			if ref == (Stats{}) {
				ref = st
			} else if st != ref {
				t.Errorf("trial %d %s: stats %+v differ from another engine's %+v", trial, name, st, ref)
			}
		}
		for name, ev := range engines() {
			vals := make([]Val, len(items))
			for i, it := range items {
				vals[i] = ev.Input(it.Owner, want[i])
			}
			if got := ev.OpenBatch(vals); !equalInt64(got, want) {
				t.Fatalf("trial %d %s: per-scalar Input opened %v, want %v", trial, name, got, want)
			}
			st := ev.Stats()
			if st.Messages != ref.Messages || st.Bytes != ref.Bytes || st.FieldOps != ref.FieldOps {
				t.Errorf("trial %d %s: per-scalar Input moved %d messages / %d bytes / %d field ops, InputBatch %d / %d / %d",
					trial, name, st.Messages, st.Bytes, st.FieldOps, ref.Messages, ref.Bytes, ref.FieldOps)
			}
			if wantFrames := int64(len(items)*(p-1) + p*(p-1)); st.Frames != wantFrames {
				t.Errorf("trial %d %s: per-scalar Input sent %d frames, want %d", trial, name, st.Frames, wantFrames)
			}
		}
	}
}

// BenchmarkActorLocalGates measures the cost of one planned scalar local
// gate on the actor engine end to end: facade dispatch, queueing, and
// all P parties executing it. One barrier per iteration batch keeps the
// parties from falling arbitrarily far behind the caller. Run it with a
// fixed count (-benchtime 1000000x): party slot arrays only grow, so the
// default ramp to ~10 M gates measures memory growth, not dispatch.
func BenchmarkActorLocalGates(b *testing.B) {
	eng, err := NewActorEngine(Config{Parties: 4, Seed: 1}, transport.NewChanMesh(4))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	x := eng.Input(0, 3)
	y := eng.Input(1, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i & 3 {
		case 0:
			x = eng.Add(x, y)
		case 1:
			y = eng.MulConst(y, 3)
		case 2:
			x = eng.Sub(x, y)
		case 3:
			y = eng.AddConst(x, 7)
		}
		if i&0xffff == 0xffff {
			eng.Stats()
		}
	}
	eng.Stats()
	b.StopTimer()
	if err := eng.Err(); err != nil {
		b.Fatal(err)
	}
}
