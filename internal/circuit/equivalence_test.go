package circuit

import (
	"math/rand"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/transport"
)

// randomCircuit records a random DAG into b: literal inputs, the full
// linear gate surface — the vector gates Gather and LinComb included —
// scalar and fused multiplications, and a few opened outputs. Scalar
// inputs (signed and raw) and input vectors keep arriving between the
// gates, so the executor's hoisting of every scalar input into one
// leading InputBatch — ahead of locals and InputVecs recorded before
// it — is exercised on every seed. Sum trees over inputs
// that few owners deal (sumTree, sumTreeVec) arrive too, so Compile's
// fold pass has something to rewrite on most seeds. Half the seeds end
// in a terminalTail, which decides whether the last multiplicative level
// is opened unreduced, and three in four in an unsharedTail after it,
// which decides whether one more input leaf is shared. The shape is fully
// determined by rng, so the same seed rebuilds the same circuit for every
// backend; the returned bindings fill the scalar trees' parameter leaves,
// and the tails say what the seed ended in.
func randomCircuit(b *Builder, rng *rand.Rand) (Bindings, circuitTails) {
	const p = 4
	var bind Bindings
	var tails circuitTails
	vals := []bgw.Val{b.Zero()}
	var vecs []bgw.Vec
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		vals = append(vals, b.Input(rng.Intn(p), int64(rng.Intn(2001)-1000)))
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		vs := make([]int64, 2+rng.Intn(3))
		for k := range vs {
			vs[k] = int64(rng.Intn(201) - 100)
		}
		vecs = append(vecs, b.InputVec(rng.Intn(p), vs))
	}
	pick := func() bgw.Val { return vals[rng.Intn(len(vals))] }
	pickVecLike := func(v1 bgw.Vec) bgw.Vec {
		var cands []bgw.Vec
		for _, v2 := range vecs {
			if v2.Len() == v1.Len() {
				cands = append(cands, v2)
			}
		}
		return cands[rng.Intn(len(cands))]
	}
	pickVecPair := func() (bgw.Vec, bgw.Vec) {
		v1 := vecs[rng.Intn(len(vecs))]
		return v1, pickVecLike(v1)
	}
	for i, ops := 0, 5+rng.Intn(20); i < ops; i++ {
		switch rng.Intn(17) {
		case 0:
			vals = append(vals, b.Add(pick(), pick()))
		case 1:
			vals = append(vals, b.Sub(pick(), pick()))
		case 2:
			vals = append(vals, b.AddConst(pick(), int64(rng.Intn(101)-50)))
		case 3:
			vals = append(vals, b.MulConst(pick(), int64(rng.Intn(21)-10)))
		case 4:
			vals = append(vals, b.Mul(pick(), pick()))
		case 5:
			as := make([]bgw.Val, 1+rng.Intn(3))
			bs := make([]bgw.Val, len(as))
			for k := range as {
				as[k], bs[k] = pick(), pick()
			}
			vals = append(vals, b.InnerProduct(as, bs))
		case 6:
			v := vecs[rng.Intn(len(vecs))]
			vals = append(vals, b.At(v, rng.Intn(v.Len())))
		case 7:
			v1, v2 := pickVecPair()
			vecs = append(vecs, b.AddVec(v1, v2))
		case 8:
			v1, v2 := pickVecPair()
			vals = append(vals, b.Dot(v1, v2))
		case 9:
			xs := make([]bgw.Val, 1+rng.Intn(3))
			for k := range xs {
				xs[k] = pick()
			}
			vecs = append(vecs, b.FromScalars(xs))
		case 10:
			vals = append(vals, b.Input(rng.Intn(p), int64(rng.Intn(2001)-1000)))
		case 11:
			vals = append(vals, b.InputElem(rng.Intn(p), field.FromInt64(int64(rng.Intn(2001)-1000))))
		case 12:
			vs := make([]int64, vecs[rng.Intn(len(vecs))].Len())
			for k := range vs {
				vs[k] = int64(rng.Intn(201) - 100)
			}
			vecs = append(vecs, b.InputVec(rng.Intn(p), vs))
		case 13:
			vals = append(vals, sumTree(b, rng, &bind, pick)...)
		case 14:
			vecs = append(vecs, sumTreeVec(b, rng, vecs[rng.Intn(len(vecs))]))
		case 15:
			v := vecs[rng.Intn(len(vecs))]
			idx := make([]int, rng.Intn(5))
			for k := range idx {
				idx[k] = rng.Intn(v.Len())
			}
			// An empty Gather is recorded and executed but not kept: every
			// later pick may index or open its vector.
			if g := b.Gather(v, idx); len(idx) > 0 {
				vecs = append(vecs, g)
			}
		case 16:
			vs, cs := make([]bgw.Vec, 1+rng.Intn(3)), make([]int64, 3)
			like := vecs[rng.Intn(len(vecs))]
			for k := range vs {
				vs[k], cs[k] = pickVecLike(like), int64(rng.Intn(21)-10)
			}
			vecs = append(vecs, b.LinComb(vs, cs[:len(vs)], int64(rng.Intn(101)-50)))
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		b.OpenIdx(pick())
	}
	b.OpenVecIdx(vecs[rng.Intn(len(vecs))])
	// Drawn last, so a seed records the gates above whatever the tails are.
	if tail := rng.Intn(4); tail >= 2 {
		tails.dangling = tail == 3
		terminalTail(b, rng, vals, vecs, tails.dangling)
	}
	if tails.unshared = rng.Intn(4); tails.unshared != noUnsharedTail {
		tails.leaf = unsharedTail(b, rng, tails.unshared)
	}
	return bind, tails
}

// circuitTails is what randomCircuit ended a seed's circuit in.
type circuitTails struct {
	dangling bool  // a terminalTail with its dangling handle
	unshared int   // the unsharedTail's shape, or noUnsharedTail
	leaf     int32 // the unsharedTail's input leaf
}

// The shapes of an unsharedTail.
const (
	noUnsharedTail = iota
	openOnlyTail   // input → linear → open: the leaf must be unshared
	multipliedTail // the same input also feeds a multiplication: shared
	readableTail   // the same with a linear handle nothing consumes: shared
)

// terminalTail puts one more multiplicative level on top of everything
// recorded. The sum of every scalar and of one element of every vector
// sits at the circuit's deepest level, so its products with earlier
// values are alone on the level above. They flow through linear gates —
// a fresh degree-t input vector among them, as the noise of an SQM
// release is — into a scalar and a vector opening: mul → linear → open,
// the shape whose level Compile marks terminal. With dangling, one more
// linear gate reads a product and nothing reads the gate: a handle a
// later plan could bind, which must keep the level reduced.
func terminalTail(b *Builder, rng *rand.Rand, vals []bgw.Val, vecs []bgw.Vec, dangling bool) {
	top := vals[0]
	for _, v := range vals[1:] {
		top = b.Add(top, v)
	}
	for _, v := range vecs {
		top = b.Add(top, b.At(v, rng.Intn(v.Len())))
	}
	pick := func() bgw.Val { return vals[rng.Intn(len(vals))] }
	m1 := b.Mul(top, pick())
	m2 := b.InnerProduct([]bgw.Val{top, pick()}, []bgw.Val{pick(), top})
	b.OpenIdx(b.AddConst(b.Sub(m1, m2), int64(rng.Intn(101)-50)))
	noise := b.InputVec(rng.Intn(4), []int64{int64(rng.Intn(201) - 100), int64(rng.Intn(201) - 100)})
	b.OpenVecIdx(b.AddVec(b.FromScalars([]bgw.Val{m1, m2}), noise))
	if dangling {
		b.MulConst(m1, 3)
	}
}

// unsharedTail records one more input leaf — a scalar or a vector — and
// opens a linear gate over it: input → linear → open, the shape whose
// leaf Compile leaves unshared. In a multipliedTail the same leaf is also
// squared and the square opened (consumed, so it leaves a terminal level
// terminal); in a readableTail a second linear gate reads the first and
// nothing reads the gate, a handle a later plan could bind and multiply.
// Either must keep the leaf a degree-t sharing. It returns the leaf's id.
func unsharedTail(b *Builder, rng *rand.Rand, shape int) int32 {
	owner, c := rng.Intn(4), int64(rng.Intn(21)-10)
	if rng.Intn(2) == 0 {
		x := b.Input(owner, int64(rng.Intn(2001)-1000))
		lin := b.AddConst(b.MulConst(x, c), 7)
		b.OpenIdx(lin)
		switch shape {
		case multipliedTail:
			b.OpenIdx(b.Mul(x, x))
		case readableTail:
			b.MulConst(lin, 3)
		}
		return x.(*Val).id
	}
	v := b.InputVec(owner, []int64{int64(rng.Intn(201) - 100), int64(rng.Intn(201) - 100)})
	lin := b.LinComb([]bgw.Vec{v}, []int64{c}, 7)
	b.OpenVecIdx(lin)
	switch shape {
	case multipliedTail:
		b.OpenIdx(b.Dot(v, v))
	case readableTail:
		b.Gather(lin, []int{1, 0})
	}
	return v.(*Vec).id
}

// sumTree records a sum of 2–7 scalar leaves dealt by at most two
// owners — literal, raw and parameter inputs mixed, now and then a Zero
// or an arbitrary earlier value among them — combined in random order, so
// chains and bushy trees both occur. It returns the handles the rest of
// the circuit may go on to use: always the root (which a later gate may
// consume twice over), sometimes a partial sum (which then has a second
// consumer and roots its own tree), and sometimes the product of one leaf
// with an earlier value, a second consumer that must keep that leaf out
// of the fold.
func sumTree(b *Builder, rng *rand.Rand, bind *Bindings, pick func() bgw.Val) []bgw.Val {
	owners := [2]int{rng.Intn(4), rng.Intn(4)}
	var out []bgw.Val
	terms := make([]bgw.Val, 2+rng.Intn(6))
	for i := range terms {
		owner, v := owners[rng.Intn(2)], int64(rng.Intn(2001)-1000)
		switch rng.Intn(8) {
		case 0:
			terms[i] = b.Zero()
			continue
		case 1:
			terms[i] = pick()
			continue
		case 2, 3:
			terms[i] = b.Input(owner, v)
		case 4:
			terms[i] = b.InputElem(owner, field.FromInt64(v))
		default:
			terms[i] = b.InputParam(owner)
			bind.Inputs = append(bind.Inputs, v)
		}
		if rng.Intn(6) == 0 {
			out = append(out, b.Mul(terms[i], pick()))
		}
	}
	for len(terms) > 1 {
		i := rng.Intn(len(terms) - 1)
		sum := b.Add(terms[i], terms[i+1])
		if len(terms) > 2 && rng.Intn(8) == 0 {
			out = append(out, sum)
		}
		terms = append(append(terms[:i:i], sum), terms[i+2:]...)
	}
	return append(out, terms[0])
}

// sumTreeVec is sumTree's vector counterpart: a chain of AddVec gates
// over 2–5 literal input vectors of like's length from at most two
// owners, like itself sometimes among the addends.
func sumTreeVec(b *Builder, rng *rand.Rand, like bgw.Vec) bgw.Vec {
	owners := [2]int{rng.Intn(4), rng.Intn(4)}
	var acc bgw.Vec
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		vs := make([]int64, like.Len())
		for k := range vs {
			vs[k] = int64(rng.Intn(201) - 100)
		}
		var term bgw.Vec
		if owner := owners[rng.Intn(2)]; rng.Intn(5) == 0 {
			term = like
		} else {
			term = b.InputVec(owner, vs)
		}
		if acc == nil {
			acc = term
		} else {
			acc = b.AddVec(acc, term)
		}
	}
	return acc
}

// compileUnfolded schedules the recording exactly as recorded, without
// Compile's fold pass: the reference the folded plans are held to.
func compileUnfolded(t *testing.T, b *Builder) *Plan {
	t.Helper()
	p, err := b.take()
	if err == nil {
		err = p.schedule()
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkEquivalence compiles the seed's random circuit and demands
// bit-identical opened outputs from every execution strategy: the
// plain interpreter over the circuit as recorded (the oracle), then the
// compiled — folded — plan on the plain interpreter, the planned
// executor on the monolithic and actor engines, and gate-by-gate
// execution (runEager). Measured rounds must equal the plan's predictions.
func checkEquivalence(t *testing.T, seed int64) {
	t.Helper()
	ub := NewBuilder(4, 0)
	bind, _ := randomCircuit(ub, rand.New(rand.NewSource(seed)))
	want, err := compileUnfolded(t, ub).Plain(bind)
	if err != nil {
		t.Fatalf("seed %d: plain, as recorded: %v", seed, err)
	}

	b := NewBuilder(4, 0)
	randomCircuit(b, rand.New(rand.NewSource(seed)))
	plan := b.MustCompile()

	check := func(name string, res *Result, rounds int64, wantRounds int) {
		if len(res.opened) != len(want.opened) {
			t.Fatalf("seed %d: %s opened %d values, plain %d", seed, name, len(res.opened), len(want.opened))
		}
		for i := range want.opened {
			if res.opened[i] != want.opened[i] {
				t.Errorf("seed %d: %s output %d = %d, plain %d", seed, name, i, res.opened[i], want.opened[i])
			}
		}
		for i := range want.openedVecs {
			for k := range want.openedVecs[i] {
				if res.openedVecs[i][k] != want.openedVecs[i][k] {
					t.Errorf("seed %d: %s vec %d[%d] = %d, plain %d", seed, name, i, k, res.openedVecs[i][k], want.openedVecs[i][k])
				}
			}
		}
		if rounds != int64(wantRounds) {
			t.Errorf("seed %d: %s rounds = %d, want %d", seed, name, rounds, wantRounds)
		}
	}

	pres, err := plan.Plain(bind)
	if err != nil {
		t.Fatalf("seed %d: plain: %v", seed, err)
	}
	check("plain", pres, int64(plan.Rounds()), plan.Rounds())

	// Both drivers of the engine at their own pool widths (inline
	// parties split a level's products over GOMAXPROCS chunks, parties
	// behind a mesh run them serially; internal/bgw sweeps the width).
	mono, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: uint64(seed) ^ 0x9e37})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := plan.Execute(mono, bind)
	if err != nil {
		t.Fatalf("seed %d: mono-planned: %v", seed, err)
	}
	check("mono-planned", mres, mono.Stats().Rounds, plan.Rounds())

	actor, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: uint64(seed) ^ 0x51f1}, transport.NewChanMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	defer actor.Close()
	ares, err := plan.Execute(actor, bind)
	if err != nil {
		t.Fatalf("seed %d: actor-planned: %v", seed, err)
	}
	if err := actor.Err(); err != nil {
		t.Fatalf("seed %d: actor-planned engine: %v", seed, err)
	}
	check("actor-planned", ares, actor.Stats().Rounds, plan.Rounds())

	// The inline parties' link counts frames where a row is handed over,
	// the mesh where a frame is sent: one frame per link and level, the
	// batched input level included, or the two disagree.
	if mf, af := mono.Stats().Frames, actor.Stats().Frames; mf != af {
		t.Errorf("seed %d: planned frames: inline link counted %d, actor mesh carried %d", seed, mf, af)
	}

	eager, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: uint64(seed) ^ 0x2c85})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := plan.runEager(bgw.Eval(eager), bind)
	if err != nil {
		t.Fatalf("seed %d: eager: %v", seed, err)
	}
	check("mono-eager", eres, eager.Stats().Rounds, plan.EagerRounds())
}

// TestPlanEquivalenceRandomCircuits is the differential test: many
// random DAGs, four execution strategies, all bit-identical.
func TestPlanEquivalenceRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		checkEquivalence(t, seed)
	}
}

// fuzzSeeds is FuzzPlanEquivalence's seed corpus. 19, 43 and 51 are
// there for the vector gates: each records Gather (an empty one too) and
// LinComb several times over.
var fuzzSeeds = []int64{0, 1, 2, 3, 4, 5, 6, 7, 19, 43, 51}

// TestFuzzCorpusReachesTerminalShapes keeps the corpus honest about the
// last multiplicative level: its seeds must compile plans that leave it
// unreduced (mul → linear → open), plans that reduce it because a
// top-level handle dangles beside the opening, and plans without a tail.
func TestFuzzCorpusReachesTerminalShapes(t *testing.T) {
	var terminal, dangling, plain int
	for _, seed := range fuzzSeeds {
		b := NewBuilder(4, 0)
		_, tails := randomCircuit(b, rand.New(rand.NewSource(seed)))
		plan := b.MustCompile()
		switch {
		case plan.terminal:
			terminal++
		case tails.dangling:
			dangling++
		default:
			plain++
		}
	}
	if terminal == 0 || dangling == 0 || plain == 0 {
		t.Fatalf("corpus compiles %d terminal plans, %d with a dangling top-level handle, %d others; want each", terminal, dangling, plain)
	}
}

// TestFuzzCorpusReachesUnsharedShapes keeps the corpus honest about the
// input leaves: its seeds must end in a leaf that reaches nothing but an
// opening and is left unshared, in one that is also multiplied and in one
// with a readable linear handle over it, both of which must stay shared —
// and in plans with no such tail.
func TestFuzzCorpusReachesUnsharedShapes(t *testing.T) {
	var count [4]int
	for _, seed := range fuzzSeeds {
		b := NewBuilder(4, 0)
		_, tails := randomCircuit(b, rand.New(rand.NewSource(seed)))
		plan := b.MustCompile()
		count[tails.unshared]++
		if tails.unshared == noUnsharedTail {
			continue
		}
		if got, want := plan.nodes[tails.leaf].openOnly, tails.unshared == openOnlyTail; got != want {
			t.Errorf("seed %d: tail shape %d left its leaf unshared=%v, want %v", seed, tails.unshared, got, want)
		}
	}
	for shape, n := range count {
		if n == 0 {
			t.Fatalf("corpus ends in %v plans per tail shape; shape %d is missing", count, shape)
		}
	}
}

// TestFuzzCorpusReachesVectorGates keeps the corpus honest when
// randomCircuit's draws shift: its seeds must still record a Gather, a
// Gather of nothing and a LinComb of several terms.
func TestFuzzCorpusReachesVectorGates(t *testing.T) {
	var gathers, empty, combs int
	for _, seed := range fuzzSeeds {
		b := NewBuilder(4, 0)
		randomCircuit(b, rand.New(rand.NewSource(seed)))
		for _, n := range b.nodes {
			switch {
			case n.kind == kGather && n.n == 0:
				empty++
			case n.kind == kGather:
				gathers++
			case n.kind == kLinComb && n.b > 1:
				combs++
			}
		}
	}
	if gathers == 0 || empty == 0 || combs == 0 {
		t.Fatalf("corpus records %d Gather, %d empty Gather, %d multi-term LinComb gates; want each", gathers, empty, combs)
	}
}

// FuzzPlanEquivalence lets the fuzzer hunt for circuit shapes where
// the scheduler, the batched executor, and the gate-by-gate reference
// disagree.
func FuzzPlanEquivalence(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEquivalence(t, seed)
	})
}
