package bgw

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"sqm/internal/chunk"
	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/transport"
)

// TestActorCloseWithGatesInFlight: Close right after a run of scalar
// gates, which the parties may still be working through, drops what is
// left and joins every party goroutine.
func TestActorCloseWithGatesInFlight(t *testing.T) {
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
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if got := eng.Open(acc); got != 0 {
			t.Errorf("Open after Close = %d, want 0", got)
		}
	}
	waitGoroutines(t, base)
}

// localGateProgram opens one value, issues gates scalar local gates of
// every kind, and opens the running results: with gates well past three
// of the largest command chunks the engine fills several chunks and
// starts another between the two openings.
func localGateProgram(ev Evaluator, gates int) []int64 {
	a := ev.Input(0, 37)
	b := ev.Input(1, -12)
	v := ev.InputVec(2, []int64{4, -9, 2})
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

// TestActorFullBatchesMatchMonolithic: the arena the commands are written
// into is invisible in the outputs — several full chunks of gates between
// two openings open exactly what a fresh NewEngine opens, behind a
// channel and a TCP mesh.
func TestActorFullBatchesMatchMonolithic(t *testing.T) {
	var cmds chunk.Arena[actorCmd]
	gates := 3*cmds.Most() + 41
	mono := newActorChan(t, Config{Parties: 4, Seed: 21})
	want := localGateProgram(mono, gates)
	for name, eng := range map[string]*Engine{
		"actor":     newActorChan(t, Config{Parties: 4, Seed: 21}),
		"actor-net": newActorTCP(t, Config{Parties: 4, Seed: 21}),
	} {
		got := localGateProgram(eng, gates)
		if err := eng.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalInt64(got, want) {
			t.Errorf("%s opened %v, NewEngine %v", name, got, want)
		}
		if ms, as := mono.Stats(), eng.Stats(); ms != as {
			t.Errorf("%s stats %+v, NewEngine %+v", name, as, ms)
		}
	}
}

// TestOwnerScalarsDealtTogetherAcrossEngines is the cross-engine
// property of an owner's scalars dealt as one InputVec and taken apart
// with At: for random owner assignments NewEngine and the channel-actor
// and TCP-actor engines agree on every counter, the round costs one
// frame per owner and unseeded peer, messages/bytes/FieldOps equal the
// per-scalar Input path, and the opened values are the inputs.
func TestOwnerScalarsDealtTogetherAcrossEngines(t *testing.T) {
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
		owners := make([]int, 1+g.IntN(40))
		want := make([]int64, len(owners))
		distinct := map[int]bool{}
		for i := range owners {
			want[i] = int64(g.IntN(2_000_001)) - 1_000_000
			owners[i] = pool[g.IntN(len(pool))]
			distinct[owners[i]] = true
		}
		cfg := Config{Parties: p, Seed: uint64(trial)}
		engines := func() map[string]Evaluator {
			mono := newActorChan(t, cfg)
			return map[string]Evaluator{"bgw": Eval(mono), "actor": newActorChan(t, cfg), "actor-net": newActorTCP(t, cfg)}
		}

		// At P = 5, t = 2 every dealing reaches P − 1 − t = 2 peers by frame,
		// and the opening is one frame into party 0 from each of its P − 1
		// peers.
		const unseeded = p - 1 - 2
		var ref Stats
		for name, ev := range engines() {
			vals := inputScalars(ev, owners, want)
			got := ev.OpenBatch(vals)
			if err := ev.Err(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !equalInt64(got, want) {
				t.Fatalf("trial %d %s: opened %v, want %v", trial, name, got, want)
			}
			st := ev.Stats()
			if wantFrames := int64(len(distinct)*unseeded + p - 1); st.Frames != wantFrames {
				t.Errorf("trial %d %s: %d frames, want %d owners·(P−1−t) + P−1 = %d",
					trial, name, st.Frames, len(distinct), wantFrames)
			}
			if ref == (Stats{}) {
				ref = st
			} else if st != ref {
				t.Errorf("trial %d %s: stats %+v differ from another engine's %+v", trial, name, st, ref)
			}
		}
		for name, ev := range engines() {
			vals := make([]Val, len(owners))
			for i, o := range owners {
				vals[i] = ev.Input(o, want[i])
			}
			if got := ev.OpenBatch(vals); !equalInt64(got, want) {
				t.Fatalf("trial %d %s: per-scalar Input opened %v, want %v", trial, name, got, want)
			}
			st := ev.Stats()
			if st.Messages != ref.Messages || st.Bytes != ref.Bytes || st.FieldOps != ref.FieldOps {
				t.Errorf("trial %d %s: per-scalar Input moved %d messages / %d bytes / %d field ops, one vector per owner %d / %d / %d",
					trial, name, st.Messages, st.Bytes, st.FieldOps, ref.Messages, ref.Bytes, ref.FieldOps)
			}
			if wantFrames := int64(len(owners)*unseeded + p - 1); st.Frames != wantFrames {
				t.Errorf("trial %d %s: per-scalar Input sent %d frames, want %d", trial, name, st.Frames, wantFrames)
			}
		}
	}
}

// inputScalars deals vs[i] from party owners[i], every owner's scalars
// as one InputVec in item order, and returns them taken apart with At,
// in item order: the shape Plan.Execute enters scalar leaves in.
func inputScalars(ev Evaluator, owners []int, vs []int64) []Val {
	own := make([][]int64, ev.Parties())
	for i, o := range owners {
		own[o] = append(own[o], vs[i])
	}
	vecs := make([]Vec, len(own))
	for o, xs := range own {
		if len(xs) > 0 {
			vecs[o] = ev.InputVec(o, xs)
		}
	}
	out, next := make([]Val, len(owners)), make([]int, len(own))
	for i, o := range owners {
		out[i] = ev.At(vecs[o], next[o])
		next[o]++
	}
	return out
}

// BenchmarkActorLocalGates measures the cost of one planned scalar local
// gate on the actor engine end to end: facade dispatch, one channel
// send per party, and all P parties executing it. One barrier per iteration batch keeps the
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

// TestLocalGatesAllocateChunksOnly: behind a mesh, a local vector gate
// or an At costs no heap object of its own — not its command, payload,
// operand copy or handle on the caller, nor its output slot at any party.
// After a warm-up of the same gates, 2 000 more cost only the next
// arena chunks and slot-array growth, at most one allocation per 16
// gates. Appending to one gate's output slot never reaches the next
// gate's: every carved slot is full to its capacity.
func TestLocalGatesAllocateChunksOnly(t *testing.T) {
	const p, n, gates = 4, 8, 2000
	eng := newActorChan(t, Config{Parties: p, Seed: 5})
	xs, ys := make([]int64, n), make([]int64, n)
	perm := make([]int, n)
	for k := range xs {
		xs[k], ys[k], perm[k] = int64(k*k-7), int64(3-2*k), (3*k+1)%n
	}
	x, y := eng.InputVec(0, xs), eng.InputVec(1, ys)
	// x's elements in perm's order, which FromScalars packs.
	xp := make([]Val, n)
	for k, i := range perm {
		xp[k] = eng.At(x, i)
	}
	var g, s, l *SharedVec
	terms, cs := make([]Vec, 2), []int64{2, -1}
	run := func() {
		for i := 0; i < gates; i++ {
			switch i % 4 {
			case 0:
				g = eng.FromScalars(xp).(*SharedVec)
			case 1:
				s = eng.AddVec(g, y).(*SharedVec)
			case 2:
				terms[0], terms[1] = s, x
				l = eng.LinComb(terms, cs, 3).(*SharedVec)
			case 3:
				eng.At(l, i%n)
			}
		}
		eng.Stats() // a barrier: every party has run every gate
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations for %d local gates at P = %d", allocs, gates, p)
	if allocs > gates/16 {
		t.Errorf("%d local gates cost %d allocations, want chunk growth only (<= %d)", gates, allocs, gates/16)
	}

	// g, s and l are the last three gates' outputs, carved one after
	// another from every party's slot arena.
	for _, pa := range eng.parties {
		for _, pr := range [][2]*SharedVec{{g, s}, {s, l}} {
			slot, next := pa.vc[pr[0].ref], pa.vc[pr[1].ref]
			if len(slot) != cap(slot) {
				t.Fatalf("party %d: slot %d has len %d, cap %d", pa.id, pr[0].ref, len(slot), cap(slot))
			}
			keep := append([]field.Elem(nil), next...)
			_ = append(slot, 1, 2, 3)
			if !slices.Equal(next, keep) {
				t.Fatalf("party %d: appending to slot %d changed slot %d", pa.id, pr[0].ref, pr[1].ref)
			}
		}
	}
	want := make([]int64, n)
	for k := range want {
		want[k] = 2*(xs[perm[k]]+ys[k]) - xs[k] + 3
	}
	if got := eng.OpenVec(l); !equalInt64(got, want) {
		t.Fatalf("opened %v, want %v", got, want)
	}
}

// TestInputRoundAllocatesOneRowArray: behind a ChanMesh, every row a
// party draws from a seeded dealer's stream or takes off its link in an
// input round is carved from one array it makes for the round, so a
// round of k vectors costs a party that array and now and then a growth
// of its slot list, not k rows (3·8 here). The rest of the round's
// allocations are the caller's: the open round's list grows to k, the
// engine embeds the round's vectors in the field as one run of its
// arena when it issues the round, and Stats makes its reply channel and
// list.
func TestInputRoundAllocatesOneRowArray(t *testing.T) {
	const p, k, n = 4, 32, 16
	eng := newActorChan(t, Config{Parties: p, Seed: 9})
	vs := make([]int64, n)
	round := func() {
		for i := 0; i < k; i++ {
			eng.InputVec(i%p, vs)
		}
		eng.Stats() // issues the round and waits for every party
	}
	round()
	round()
	// The fewest of five rounds: the party goroutines' wake-ups, or a
	// collection that falls inside one, may add a handful to any one.
	allocs := -1
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		if n := int(after.Mallocs - before.Mallocs); allocs < 0 || n < allocs {
			allocs = n
		}
	}
	caller := k + bits.Len(k) + 2
	t.Logf("an input round of %d vectors at P = %d: %d allocations (bound %d: an allowance of %d for the caller and three per party)", k, p, allocs, caller+3*p, caller)
	if most := caller + 3*p; allocs > most {
		t.Errorf("an input round of %d vectors cost %d allocations, want at most %d: the caller's %d and three per party", k, allocs, most, caller)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestInputRoundAllocationsIndependentOfVectors: what an input round
// behind a ChanMesh allocates — the caller's embeddings, round list and
// handles, and the parties' rows — does not grow with the number of
// vectors. The engine embeds the round's vectors into one array it
// carves when it issues the round; the round list keeps its array from
// round to round and the command's list and the handles come from
// arenas. Rounds of 32 and 128 vectors differ by at most 3 allocations,
// where they used to differ by several per vector.
func TestInputRoundAllocationsIndependentOfVectors(t *testing.T) {
	const p, n = 4, 16
	allocs := func(k int) int {
		eng := newActorChan(t, Config{Parties: p, Seed: 9})
		vs := make([]int64, n)
		round := func() {
			for i := 0; i < k; i++ {
				eng.InputVec(i%p, vs)
			}
			eng.Stats() // issues the round and waits for every party
		}
		round()
		round()
		// The fewest of five rounds, as in TestInputRoundAllocatesOneRowArray.
		fewest := -1
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			round()
			runtime.ReadMemStats(&after)
			if n := int(after.Mallocs - before.Mallocs); fewest < 0 || n < fewest {
				fewest = n
			}
		}
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		return fewest
	}
	few, many := allocs(32), allocs(128)
	t.Logf("an input round at P = %d: %d allocations for 32 vectors, %d for 128", p, few, many)
	if many-few > 3 {
		t.Errorf("an input round of 128 vectors cost %d allocations, of 32 vectors %d: want a difference of at most 3", many, few)
	}
}

// TestInputVecIsTheCallersOnceTheRoundIsIssued: InputVec reads vs when
// the round is issued, by the engine's next command of another kind —
// here Stats — and not after: writing over vs then leaves what the
// parties hold as it was, on both drivers.
func TestInputVecIsTheCallersOnceTheRoundIsIssued(t *testing.T) {
	for name, e := range vecGateEngines(t) {
		x, y := []int64{7, -3, 0, 1 << 40}, []int64{-1, 2, -4, 8}
		want := [][]int64{slices.Clone(x), slices.Clone(y)}
		vs := []Vec{e.InputVec(0, x), e.InputVec(3, y)}
		e.Stats() // issues the round
		for k := range x {
			x[k], y[k] = 99, -99
		}
		for i, v := range vs {
			if got := e.OpenVec(v); !equalInt64(got, want[i]) {
				t.Errorf("%s: vector %d opened %v after its caller wrote over it, want %v", name, i, got, want[i])
			}
		}
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
