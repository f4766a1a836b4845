package circuit

import (
	"math/rand"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/transport"
)

// randomCircuit records a random DAG into b: literal inputs, the full
// linear gate surface — the vector gate LinComb included — scalar and
// fused multiplications, and a few opened outputs. Scalar inputs and
// input vectors keep arriving between the
// gates, so the executor's hoisting of every scalar input into one
// leading InputVec per owner — ahead of locals and InputVecs recorded
// before it — is exercised on every seed. Sum trees over inputs
// that few owners deal (sumTree, sumTreeVec) arrive too, so Compile's
// fold pass has something to rewrite on most seeds. Half the seeds end
// in a terminalTail, which decides whether the last multiplicative level
// is opened unreduced, and three in four in an unsharedTail after it,
// which decides whether one more input leaf is shared; last come a
// gramTail on one seed in three, a lowTail on two in three, a chainTail
// on one in two and a mixedSumTail on one in two. The shape is fully
// determined by rng and the builder's P, so the same seed rebuilds the
// same circuit for every backend; the returned bindings fill the scalar trees' and the lowTail's
// parameter leaves, and the tails say what the seed ended in.
func randomCircuit(b *Builder, rng *rand.Rand) (Bindings, circuitTails) {
	p := b.p
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
		switch rng.Intn(16) {
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
			vs := make([]int64, vecs[rng.Intn(len(vecs))].Len())
			for k := range vs {
				vs[k] = int64(rng.Intn(201) - 100)
			}
			vecs = append(vecs, b.InputVec(rng.Intn(p), vs))
		case 12:
			vals = append(vals, sumTree(b, rng, &bind, pick)...)
		case 13:
			vecs = append(vecs, sumTreeVec(b, rng, vecs[rng.Intn(len(vecs))]))
		case 14:
			vs, cs := make([]bgw.Vec, 1+rng.Intn(3)), make([]int64, 3)
			like := vecs[rng.Intn(len(vecs))]
			for k := range vs {
				vs[k], cs[k] = pickVecLike(like), int64(rng.Intn(21)-10)
			}
			vecs = append(vecs, b.LinComb(vs, cs[:len(vs)], int64(rng.Intn(101)-50)))
		case 15:
			v1, v2 := pickVecPair()
			vecs = append(vecs, b.Hadamard(v1, v2))
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
	if rng.Intn(3) == 0 {
		gramTail(b, rng)
	}
	if rng.Intn(3) != 0 {
		tails.low = lowTail(b, rng, &bind, vecs[0])
	}
	if rng.Intn(2) == 0 {
		chainTail(b, rng, vals)
	}
	if rng.Intn(2) == 0 {
		mixedSumTail(b, rng)
	}
	return bind, tails
}

// mixedSumTail records a vector sum tree of 3–6 leaves of one fresh
// length that mixes what a release's opening adds up — a shared vector
// (also squared into a Dot), a product only the sum reads (a Hadamard,
// open-only) and 1–4 input vectors only the sum reads (unshared; two of
// one owner fold into one) — combined in random order, chains and bushy
// trees both, and opens the root. Compile computes the tree as one plain
// LinComb over its leaves.
func mixedSumTail(b *Builder, rng *rand.Rand) {
	n := 1 + rng.Intn(4)
	fresh := func() bgw.Vec {
		vs := make([]int64, n)
		for k := range vs {
			vs[k] = int64(rng.Intn(201) - 100)
		}
		return b.InputVec(rng.Intn(b.p), vs)
	}
	shared := fresh()
	b.OpenIdx(b.Dot(shared, shared))
	terms := []bgw.Vec{shared, b.Hadamard(fresh(), fresh())}
	for i, k := 0, 1+rng.Intn(4); i < k; i++ {
		terms = append(terms, fresh())
	}
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	for len(terms) > 1 {
		i := rng.Intn(len(terms) - 1)
		terms = append(append(terms[:i:i], b.AddVec(terms[i], terms[i+1])), terms[i+2:]...)
	}
	b.OpenVecIdx(terms[0])
}

// chainTail records a product chain over earlier values: 2 to P links,
// each the chain so far times a pick — one link in four an inner product
// with the chain in one term — and opens the last. The degree rule keeps
// a link unreduced while the next one stays within P−1 (at P = 4, t = 1
// a chain of two links over degree-t leaves is never reshared; at P = 7,
// t = 2 neither is one of two), and a pick may itself be a product
// another chain kept. One link in three is opened on its own, one in six
// also gets a linear handle nothing reads, which must reshare what it
// reads.
func chainTail(b *Builder, rng *rand.Rand, vals []bgw.Val) {
	pick := func() bgw.Val { return vals[rng.Intn(len(vals))] }
	chain := pick()
	for i, n := 0, 2+rng.Intn(b.p-1); i < n; i++ {
		if rng.Intn(4) == 0 {
			chain = b.InnerProduct([]bgw.Val{pick(), chain}, []bgw.Val{pick(), pick()})
		} else {
			chain = b.Mul(chain, pick())
		}
		switch rng.Intn(6) {
		case 0:
			b.AddConst(chain, 1)
		case 1, 2:
			b.OpenIdx(chain)
		}
	}
	b.OpenIdx(chain)
}

// lowTail records 1–3 input vectors of low's length, each a vector
// parameter or a literal, and adds each to low (a level-0 input, maybe
// below the circuit's top) and opens the sum: an open-only leaf whose
// linear gate sits below the top level, which Execute must still enter
// after the last one. One in three leaves also gets a LinComb nothing
// reads, a handle a later plan could bind, so it stays shared. The
// parameters' values go into bind.InputVecs. It returns how many leaves
// it left open-only.
func lowTail(b *Builder, rng *rand.Rand, bind *Bindings, low bgw.Vec) int {
	var params [][]int64
	openOnly := 0
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		vs := make([]int64, low.Len())
		for k := range vs {
			vs[k] = int64(rng.Intn(201) - 100)
		}
		var leaf bgw.Vec
		if rng.Intn(3) != 0 {
			leaf = b.InputVecParam(rng.Intn(4), len(vs))
			params = append(params, vs)
		} else {
			leaf = b.InputVec(rng.Intn(4), vs)
		}
		b.OpenVecIdx(b.AddVec(low, leaf))
		if rng.Intn(3) == 0 {
			b.LinComb([]bgw.Vec{leaf}, []int64{2}, 0)
		} else {
			openOnly++
		}
	}
	if params != nil {
		bind.InputVecs = func() [][]int64 { return params }
	}
	return openOnly
}

// gramTail records an all-pairs DotBatch over 3–5 fresh columns of one
// length, 1–7 elements: the covariance's shape. Its c(c+1)/2 dots over c
// columns are at least three more than their operand vectors, which
// makes the engine's parties take Winograd's pairing — unless the other
// dots the scheduler batches into the same level, each adding one dot
// and up to two vectors, make up the difference.
// TestRandomCircuitsReachGramTails checks that some seeds still hand the
// engine a level whose dots reuse their vectors. Every dot is opened.
func gramTail(b *Builder, rng *rand.Rand) {
	n := 1 + rng.Intn(7)
	cols := make([]bgw.Vec, 3+rng.Intn(3))
	for i := range cols {
		vs := make([]int64, n)
		for k := range vs {
			vs[k] = int64(rng.Intn(2001) - 1000)
		}
		cols[i] = b.InputVec(rng.Intn(4), vs)
	}
	var pairs []bgw.VecPair
	for i := range cols {
		for j := i; j < len(cols); j++ {
			pairs = append(pairs, bgw.VecPair{A: cols[i], B: cols[j]})
		}
	}
	b.OpenVecIdx(b.FromScalars(b.DotBatch(pairs, 0)))
}

// circuitTails is what randomCircuit ended a seed's circuit in.
type circuitTails struct {
	dangling bool  // a terminalTail with its dangling handle
	unshared int   // the unsharedTail's shape, or noUnsharedTail
	leaf     int32 // the unsharedTail's input leaf
	low      int   // the lowTail's open-only leaves
}

// The shapes of an unsharedTail.
const (
	noUnsharedTail = iota
	openOnlyTail   // input → linear → open: the leaf must be unshared
	multipliedTail // the same input also feeds a multiplication: shared
	readableTail   // the same with a linear handle nothing consumes: shared
)

// terminalTail puts one more multiplicative level on top of everything
// recorded before it. The sum of every scalar and of one element of every vector
// sits at the circuit's deepest level, so its products with earlier
// values are alone on the level above. They flow through linear gates —
// a fresh degree-t input vector among them, as the noise of an SQM
// release is — into a scalar and a vector opening: mul → linear → open,
// the shape whose products keep the degree they have. With dangling, one
// more linear gate reads a product and nothing reads the gate: a handle a
// later plan could bind, which must have the product reshared.
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
// squared and the square opened (consumed, so the square keeps its
// degree); in a readableTail a second linear gate reads the first and
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
		b.LinComb([]bgw.Vec{lin}, []int64{-1}, 0)
	}
	return v.(*Vec).id
}

// sumTree records a sum of 2–7 scalar leaves dealt by at most two
// owners — literal and parameter inputs mixed, now and then a Zero
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
		case 2, 3, 4:
			terms[i] = b.Input(owner, v)
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
	var uses []uint8
	if err == nil {
		uses, err = p.level()
	}
	if err == nil {
		err = p.schedule(uses)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oldRounds recomputes a plan's rounds under the rule the degree rule
// replaced: every multiplicative level reshared but a terminal one, the
// top level when something consumes every node on it — depth + shared
// inputs + opening rounds − terminal. The openings are counted as
// Plan.Rounds counts them, so the two differ in the reshared levels only.
func oldRounds(p *Plan) int {
	consumed := make([]bool, len(p.nodes))
	for id := range p.nodes {
		p.eachOperand(&p.nodes[id], func(op int32) { consumed[op] = true })
	}
	terminal := p.depth > 0
	for id, n := range p.nodes {
		if n.kind != kFolded && n.kind != kOpen && n.kind != kOpenVec && !consumed[id] && int(n.level) == p.depth {
			terminal = false
		}
	}
	r := p.depth + p.openRounds()
	if p.hasInputs {
		r++
	}
	if terminal {
		r--
	}
	return r
}

// checkEquivalence compiles the seed's random circuit for P parties and
// threshold th and demands bit-identical opened outputs from every
// execution strategy: the plain interpreter over the circuit as recorded
// (the oracle), then the compiled — folded — plan on the plain
// interpreter, the planned executor on two engines — the party
// goroutines behind the ChanMesh NewEngine makes, and behind one handed
// to NewActorEngine — neither of which may report an error, and
// gate-by-gate execution (runEager). Measured rounds must equal the plan's predictions, which
// may not exceed the rule the degree rule replaced.
func checkEquivalence(t *testing.T, seed int64, P, th int) {
	t.Helper()
	ub := NewBuilder(P, th)
	bind, _ := randomCircuit(ub, rand.New(rand.NewSource(seed)))
	want, err := compileUnfolded(t, ub).Plain(bind)
	if err != nil {
		t.Fatalf("seed %d P=%d: plain, as recorded: %v", seed, P, err)
	}

	b := NewBuilder(P, th)
	randomCircuit(b, rand.New(rand.NewSource(seed)))
	plan := b.MustCompile()
	if old := oldRounds(plan); plan.Rounds() > old {
		t.Errorf("seed %d P=%d: %d rounds, %d under the terminal-level rule", seed, P, plan.Rounds(), old)
	}

	check := func(name string, res *Result, rounds int64, wantRounds int) {
		if len(res.opened) != len(want.opened) {
			t.Fatalf("seed %d P=%d: %s opened %d values, plain %d", seed, P, name, len(res.opened), len(want.opened))
		}
		for i := range want.opened {
			if res.opened[i] != want.opened[i] {
				t.Errorf("seed %d P=%d: %s output %d = %d, plain %d", seed, P, name, i, res.opened[i], want.opened[i])
			}
		}
		for i := range want.openedVecs {
			for k := range want.openedVecs[i] {
				if res.openedVecs[i][k] != want.openedVecs[i][k] {
					t.Errorf("seed %d P=%d: %s vec %d[%d] = %d, plain %d", seed, P, name, i, k, res.openedVecs[i][k], want.openedVecs[i][k])
				}
			}
		}
		if rounds != int64(wantRounds) {
			t.Errorf("seed %d P=%d: %s rounds = %d, want %d", seed, P, name, rounds, wantRounds)
		}
	}

	pres, err := plan.Plain(bind)
	if err != nil {
		t.Fatalf("seed %d P=%d: plain: %v", seed, P, err)
	}
	check("plain", pres, int64(plan.Rounds()), plan.Rounds())

	// The one engine twice, under two seeds: behind the ChanMesh
	// NewEngine makes and behind one handed to NewActorEngine. The shares
	// differ; the opened values and the rounds may not.
	planned := func(name string, eng bgw.Evaluator) {
		before := eng.Stats().Rounds
		res, err := plan.Execute(eng, bind)
		if err != nil {
			t.Fatalf("seed %d P=%d: %s: %v", seed, P, name, err)
		}
		if err := eng.Err(); err != nil {
			t.Fatalf("seed %d P=%d: %s engine: %v", seed, P, name, err)
		}
		check(name, res, eng.Stats().Rounds-before, plan.Rounds())
	}
	mono, err := bgw.NewEngine(bgw.Config{Parties: P, Threshold: th, Seed: uint64(seed) ^ 0x9e37})
	if err != nil {
		t.Fatal(err)
	}
	planned("mono-planned", mono)
	actor, err := bgw.NewActorEngine(bgw.Config{Parties: P, Threshold: th, Seed: uint64(seed) ^ 0x51f1}, transport.NewChanMesh(P))
	if err != nil {
		t.Fatal(err)
	}
	defer actor.Close()
	planned("actor-planned", actor)

	// Both meshes count a frame where it is sent: one frame per link and
	// level, the batched input level included, so two runs of one plan
	// carry the same frames whatever their seeds.
	if mf, af := mono.Stats().Frames, actor.Stats().Frames; mf != af {
		t.Errorf("seed %d P=%d: planned frames: NewEngine's ChanMesh carried %d, the one handed to NewActorEngine %d", seed, P, mf, af)
	}

	eager, err := bgw.NewEngine(bgw.Config{Parties: P, Threshold: th, Seed: uint64(seed) ^ 0x2c85})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := plan.runEager(bgw.Eval(eager), bind)
	if err != nil {
		t.Fatalf("seed %d P=%d: eager: %v", seed, P, err)
	}
	check("mono-eager", eres, eager.Stats().Rounds, plan.EagerRounds())
}

// equivalenceShapes are the (P, t) the differential suite runs at: the
// smallest deployment whose degree-2t products take one more factor
// within P−1, and the same at t = 2.
var equivalenceShapes = []struct{ P, t int }{{4, 1}, {7, 2}}

// TestPlanEquivalenceRandomCircuits is the differential test: many
// random DAGs, four execution strategies, all bit-identical.
func TestPlanEquivalenceRandomCircuits(t *testing.T) {
	for _, sh := range equivalenceShapes {
		for seed := int64(0); seed < 25; seed++ {
			checkEquivalence(t, seed, sh.P, sh.t)
		}
	}
}

// dotReuse passes every gate to the engine it wraps and counts the
// multiplicative levels whose dots name fewer distinct vector handles
// than there are dots. A handle is one slot, so on such a level the
// engine has fewer distinct slots than dots and lists them for the
// parties' pair products (TestGramBatchTakesWinogradPairs in
// internal/bgw holds a listed level to the Winograd path).
type dotReuse struct {
	bgw.Evaluator
	levels int
}

func (d *dotReuse) count(items []bgw.MulItem) {
	seen := make(map[bgw.Vec]bool)
	dots := 0
	for _, it := range items {
		if it.Kind == bgw.MulDot {
			dots++
			seen[it.VA], seen[it.VB] = true, true
		}
	}
	if len(seen) < dots {
		d.levels++
	}
}

func (d *dotReuse) MulBatch(items []bgw.MulItem) []bgw.Val {
	d.count(items)
	return d.Evaluator.MulBatch(items)
}

func (d *dotReuse) MulBatchUnreduced(items []bgw.MulItem) []bgw.Val {
	d.count(items)
	return d.Evaluator.MulBatchUnreduced(items)
}

// TestRandomCircuitsReachGramTails keeps TestPlanEquivalenceRandomCircuits
// honest about the engine's two Winograd paths: executed on the engine,
// some of its seeds must hand it a level of MulDot items whose dots reuse
// their vectors, and compiled, some must hold a kDots — one MulDots item
// — whose dots outnumber its vectors (a Gram tail, folded). That holds
// both paths to the same bits behind both ChanMesh engines of
// checkEquivalence — NewEngine's own and the one handed to
// NewActorEngine — as the plain interpreter's dot products.
func TestRandomCircuitsReachGramTails(t *testing.T) {
	reused, grams := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		b := NewBuilder(4, 0)
		bind, _ := randomCircuit(b, rand.New(rand.NewSource(seed)))
		eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		ev := &dotReuse{Evaluator: eng}
		plan := b.MustCompile()
		if _, err := plan.Execute(ev, bind); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reused += ev.levels
		for i := range plan.nodes {
			if n := &plan.nodes[i]; n.kind == kDots && n.b < n.n {
				grams++
			}
		}
	}
	if reused == 0 {
		t.Fatal("no seed hands the engine a level of dots that reuse their vectors")
	}
	if grams == 0 {
		t.Fatal("no seed compiles a kDots whose dots outnumber its vectors")
	}
}

// fuzzSeeds is FuzzPlanEquivalence's seed corpus. 19, 43 and 51 joined it
// for the vector gates; TestFuzzCorpusReachesVectorGates says what the
// corpus must reach.
var fuzzSeeds = []int64{0, 1, 2, 3, 4, 5, 6, 7, 19, 43, 51}

// TestFuzzCorpusReachesTerminalShapes keeps the corpus honest about the
// last multiplicative level: its seeds must compile plans that reshare
// nothing on it (mul → linear → open), plans that reshare a product there
// because a top-level handle dangles beside the opening, and plans
// without a tail.
func TestFuzzCorpusReachesTerminalShapes(t *testing.T) {
	var terminal, dangling, plain int
	for _, seed := range fuzzSeeds {
		b := NewBuilder(4, 0)
		_, tails := randomCircuit(b, rand.New(rand.NewSource(seed)))
		plan := b.MustCompile()
		switch {
		case plan.topKept():
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
		if got, want := plan.nodes[tails.leaf].late, tails.unshared == openOnlyTail; got != want {
			t.Errorf("seed %d: tail shape %d left its leaf unshared=%v, want %v", seed, tails.unshared, got, want)
		}
	}
	for shape, n := range count {
		if n == 0 {
			t.Fatalf("corpus ends in %v plans per tail shape; shape %d is missing", count, shape)
		}
	}
}

// TestFuzzCorpusReachesUnreducedChains keeps the corpus honest about the
// degree rule: at every (P, t) of the suite its seeds must compile a
// product whose operand is a product left unreduced, itself kept at the
// degree it has — a chain that stays unreduced — and a product reshared
// below the top level.
func TestFuzzCorpusReachesUnreducedChains(t *testing.T) {
	for _, sh := range equivalenceShapes {
		var chains, reshared int
		for _, seed := range fuzzSeeds {
			b := NewBuilder(sh.P, sh.t)
			randomCircuit(b, rand.New(rand.NewSource(seed)))
			plan := b.MustCompile()
			for i := range plan.nodes {
				n := &plan.nodes[i]
				if !n.kind.isMul() {
					continue
				}
				if n.reshare && int(n.level) < plan.depth {
					reshared++
				}
				high := false
				plan.eachPair(n, func(a, b int32) { high = high || max(plan.nodes[a].deg, plan.nodes[b].deg) > int32(sh.t) })
				if high && !n.reshare {
					chains++
				}
			}
		}
		if chains == 0 || reshared == 0 {
			t.Fatalf("P=%d t=%d: corpus compiles %d unreduced products over unreduced products and %d reshared products below the top; want each", sh.P, sh.t, chains, reshared)
		}
	}
}

// TestFuzzCorpusReachesVectorGates keeps the corpus honest when
// randomCircuit's draws shift: its seeds must still record a LinComb of
// several terms, and Hadamard products —
// compiled, one Execute reshares and one it keeps at its degree — and
// compile an AddVec tree of three leaves or more into one plain LinComb
// whose leaves mix a shared vector, an open-only product and an unshared
// input leaf.
func TestFuzzCorpusReachesVectorGates(t *testing.T) {
	var combs, reshared, kept, mixed int
	for _, seed := range fuzzSeeds {
		b := NewBuilder(4, 0)
		randomCircuit(b, rand.New(rand.NewSource(seed)))
		for _, n := range b.nodes {
			if n.kind == kLinComb && n.b > 1 {
				combs++
			}
		}
		plan := b.MustCompile()
		for i := range plan.nodes {
			switch n := &plan.nodes[i]; {
			case n.kind == kHadamard && n.reshare:
				reshared++
			case n.kind == kHadamard:
				kept++
			case n.kind == kLinComb && n.param < 0 && n.b >= 3 && plan.mixesSumLeaves(n):
				mixed++
			}
		}
	}
	if combs == 0 || reshared == 0 || kept == 0 || mixed == 0 {
		t.Fatalf("corpus records %d multi-term LinComb gates, %d reshared and %d kept Hadamards, and compiles %d mixed sum trees; want each",
			combs, reshared, kept, mixed)
	}
}

// mixesSumLeaves reports whether the compiled sum n reads a shared
// vector, a product left at the degree it has and an unshared input leaf.
func (p *Plan) mixesSumLeaves(n *node) bool {
	var shared, product, unshared bool
	for _, op := range p.operands(n.a, n.b) {
		switch l := &p.nodes[op]; {
		case l.kind.isMul():
			product = product || !l.reshare
		case l.kind.isInput() && l.late:
			unshared = true
		case l.deg == int32(p.t):
			shared = true
		}
	}
	return shared && product && unshared
}

// FuzzPlanEquivalence lets the fuzzer hunt for circuit shapes where
// the scheduler, the batched executor, and the gate-by-gate reference
// disagree.
func FuzzPlanEquivalence(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, sh := range equivalenceShapes {
			checkEquivalence(t, seed, sh.P, sh.t)
		}
	})
}
