// Package circuit compiles SQM protocols to level-scheduled execution
// plans. A recording Builder has the gates of bgw.Evaluator under the
// same names but captures every operation into a DAG IR instead of
// executing it; Compile levels the DAG by multiplicative depth; the
// resulting Plan executes against any real bgw.Evaluator, running each
// level as at most ONE batched communication round — all of a level's
// degree reductions travel in a single reshare exchange (one frame per
// party and unseeded peer), a product is reduced only when a later gate needs
// it at a lower degree (Plan.assignDegrees), and the round count the
// engine reports for the exchanges it issues is predicted by the plan's
// structure (Plan.Rounds).
//
// A plan runs one way — Plan.Execute — and Plan.Plain interprets it
// without an engine as the differential oracle. A plan that is
// re-executed takes fresh bindings: public constants (ConstParam),
// per-run secret scalars (InputParam) and vectors (InputVecParam) and
// pre-existing engine shares (ExtVal/ExtVec) are plan parameters filled
// in at execution time. A vector parameter's values may still be in the
// making when the plan starts: Execute asks for them when it first needs
// one, which for a leaf only an opening consumes is after the last
// multiplicative level.
//
// Because BGW computes exactly, opened values are bit-identical across
// gate orderings and batchings — the plan executor is free to reorder
// and fuse communication without changing any output.
package circuit

import (
	"math"
	"slices"

	"sqm/internal/bgw"
	"sqm/internal/chunk"
	"sqm/internal/invariant"
)

// nodeKind enumerates the IR node types.
type nodeKind uint8

const (
	kZero nodeKind = iota
	kInput
	kInputVec
	kInputParam
	kInputVecParam
	kExtVal
	kExtVec
	kAdd
	kSub
	kAddConst
	kMulConst
	kAddConstP
	kMulConstP
	kMul
	kInner
	kDot
	kHadamard
	kAt
	kAddVec
	kLinComb
	kFromScalars
	kOpen
	kOpenVec
	kInputSum    // one dealer's folded scalar inputs (see foldSums)
	kInputVecSum // one dealer's folded vector inputs
	kDots        // a FromScalars of one level's dots, as one vector-valued product (see foldDots)
	kFolded      // removed by foldSums or foldDots; computes nothing
)

// isMul reports whether the node costs a degree-reduction resharing.
func (k nodeKind) isMul() bool {
	return k == kMul || k == kInner || k == kDot || k == kHadamard || k == kDots
}

// isInput reports whether the node costs the input sharing round.
func (k nodeKind) isInput() bool {
	switch k {
	case kInput, kInputVec, kInputParam, kInputVecParam, kInputSum, kInputVecSum:
		return true
	}
	return false
}

// folds reports whether foldSums may merge an input leaf of the kind into
// its dealer's sum: any but a vector parameter, whose values reach the
// plan only at execution and enter the engine as they are.
func (k nodeKind) folds() bool { return k.isInput() && k != kInputVecParam }

// isScalarInput reports whether the node is a scalar input leaf: the
// planned executor enters them as one vector per owner — shared in the
// plan's input round, or unshared for the open-only ones — and takes
// that vector apart with At.
func (k nodeKind) isScalarInput() bool {
	return k == kInput || k == kInputParam || k == kInputSum
}

// isVec reports whether the node produces a vector handle.
func (k nodeKind) isVec() bool {
	switch k {
	case kInputVec, kInputVecParam, kInputVecSum, kExtVec, kAddVec, kLinComb, kFromScalars, kHadamard, kDots:
		return true
	}
	return false
}

// node is one IR operation: 40 pointer-free bytes, so a plan of tens of
// thousands of gates is one flat allocation the garbage collector never
// scans. Operand fields are interpreted per kind; operand lists and
// literal vectors live in the builder's side arenas.
type node struct {
	kind   nodeKind
	folded bool // foldSums changed what the node computes: the handle recorded for it must not resolve
	// reshare: a product Execute reduces to degree t (schedule); the
	// others keep the degree of their local products.
	reshare bool
	// late: an input leaf Execute does not share, or a linear gate over
	// one — entered after the last multiplicative level (schedule).
	late  bool
	level int32 // multiplicative level, assigned by Compile
	a, b  int32 // operand node ids; b is the element index of kAt; a is the args offset of kInner/kFromScalars operands and the lits index of a kInputVec literal; args[a:a+b] are the parameter slots a kInputSum adds, the operands of a kLinComb and the distinct vectors of a kDots, whose n index pairs into them follow
	owner int32 // input owner party
	param int32 // parameter slot (const/input/vector/ext params); lits index of a kInputVecSum's summed literals and of a kLinComb's coefficients (−1: none, the plain sum)
	n     int32 // vector length of vector-producing nodes (a kDots's dot count); operand count of kInner (list B follows list A in args)
	// deg is the degree of the sharing Execute leaves here (schedule):
	// above t, the node is open-only — its handle does not resolve, and
	// on an input leaf it means the leaf is not shared at all.
	deg int32
	c   int64 // public constant (kInput, kAddConst, kMulConst, kLinComb's c0) or the raw field sum of a kInputSum's literals
}

// Val is a handle to one recorded scalar node; it is passed around as a
// bgw.Val (by pointer into the builder's handle arena) so recorded
// protocols run unchanged against the Builder.
type Val struct {
	b  *Builder
	id int32
}

// Vec is a handle to one recorded vector node.
type Vec struct {
	b  *Builder
	id int32
	n  int
}

// Len returns the recorded vector length.
func (v *Vec) Len() int { return v.n }

// ConstID names one public-constant parameter of a plan.
type ConstID int

// Builder records the gate stream of one protocol run into a DAG. Its
// gates carry the names and signatures of bgw.Evaluator's, so a circuit
// reads the same recorded or run; it is not an engine — it holds no
// shares, counts nothing and opens nothing. OpenIdx / OpenVecIdx record
// an output gate, and the values come from Result.Opened / OpenedVec
// after execution. Compile hands the recording to the plan: the Builder
// is spent afterwards and records no more.
type Builder struct {
	p, t  int
	nodes []node
	args  []int32            // operand lists of kInner, kFromScalars and kLinComb (and, compiled, the folded input sums' slots)
	lits  [][]int64          // kInputVec literals, the caller's own slices, and kLinComb coefficients, a private copy each (a plain sum has none)
	vals  chunk.Arena[Val]   // the scalar handles
	vecs  chunk.Arena[Vec]   // the vector handles
	ints  chunk.Arena[int64] // the LinComb coefficients' copies

	limit    int  // largest id, offset or length the IR's int32 fields hold
	overflow bool // something exceeded limit; Compile reports it
	spent    bool // Compile has taken the nodes

	nConsts, nInputs, nVecParams, nExt, nExtVecs int
	opens, openVecs                              []int32 // node ids in record order
}

// NewBuilder starts recording a circuit for a P-party deployment with
// threshold t (0 means floor((P−1)/2), matching bgw.Config).
func NewBuilder(parties, threshold int) *Builder {
	if threshold == 0 {
		threshold = (parties - 1) / 2
	}
	return &Builder{p: parties, t: threshold, limit: math.MaxInt32}
}

// i32 narrows an id, arena offset or length to the IR's field width. A
// value that does not fit poisons the builder instead of wrapping.
func (b *Builder) i32(v int) int32 {
	if v > b.limit {
		b.overflow = true
		return 0
	}
	return int32(v)
}

func (b *Builder) add(n node) int32 {
	if b.spent {
		panic(invariant.Violation("circuit: recording into a compiled builder"))
	}
	id := b.i32(len(b.nodes))
	b.nodes = append(b.nodes, n)
	return id
}

// scalar records a scalar-producing node and returns its handle. The
// handles are carved from the builder's arenas, so boxing one into a
// bgw.Val or bgw.Vec does not allocate per gate; the chunks start at 16
// handles, so a step's small circuit stays small.
func (b *Builder) scalar(n node) bgw.Val {
	return b.vals.Put(Val{b: b, id: b.add(n)})
}

// vector records a vector-producing node of length n and returns its
// handle.
func (b *Builder) vector(nd node, n int) bgw.Vec {
	nd.n = b.i32(n)
	return b.vecs.Put(Vec{b: b, id: b.add(nd), n: n})
}

func (b *Builder) val(x bgw.Val) int32 {
	v, ok := x.(*Val)
	if !ok || v.b != b {
		panic(invariant.Violation("circuit: value handle from a different builder"))
	}
	return v.id
}

func (b *Builder) vec(x bgw.Vec) *Vec {
	v, ok := x.(*Vec)
	if !ok || v.b != b {
		panic(invariant.Violation("circuit: vector handle from a different builder"))
	}
	return v
}

// operands appends a scalar operand list to the args arena and returns
// its offset; the list's end must fit the id space too.
func (b *Builder) operands(xs []bgw.Val) int32 {
	off := len(b.args)
	b.args = slices.Grow(b.args, len(xs))
	for _, x := range xs {
		b.args = append(b.args, b.val(x))
	}
	b.i32(len(b.args))
	return b.i32(off)
}

func (b *Builder) checkParty(i int) int32 {
	if i < 0 || i >= b.p {
		panic(invariant.Violation("circuit: party %d out of range [0,%d)", i, b.p))
	}
	return int32(i)
}

func (b *Builder) checkConst(c ConstID) int32 {
	if int(c) >= b.nConsts {
		panic(invariant.Violation("circuit: undeclared const param %d", c))
	}
	return b.i32(int(c))
}

// ---- plan parameters ----

// ConstParam declares a public-constant parameter, bound per execution
// via Bindings.Consts. Use with AddConstP/MulConstP for coefficients
// that change between runs of the same circuit shape.
func (b *Builder) ConstParam() ConstID {
	id := ConstID(b.nConsts)
	b.nConsts++
	return id
}

// InputParam declares a per-execution secret scalar input owned by
// party owner, bound via Bindings.Inputs in declaration order. It folds
// under the rule stated on Input; the bound values are then summed per
// dealer at execution.
func (b *Builder) InputParam(owner int) bgw.Val {
	nd := node{kind: kInputParam, owner: b.checkParty(owner), param: b.i32(b.nInputs)}
	b.nInputs++
	return b.scalar(nd)
}

// InputVecParam declares a per-execution secret vector of n elements
// owned by party owner, bound via Bindings.InputVecs in declaration
// order. It is never folded (see Input).
func (b *Builder) InputVecParam(owner, n int) bgw.Vec {
	nd := node{kind: kInputVecParam, owner: b.checkParty(owner), param: b.i32(b.nVecParams)}
	b.nVecParams++
	return b.vector(nd, n)
}

// ExtVal declares a scalar that already lives inside the executing
// engine (e.g. a share produced by an earlier plan), bound via
// Bindings.Ext. External values join the DAG at level 0 without
// costing the input round.
func (b *Builder) ExtVal() bgw.Val {
	b.nExt++
	return b.scalar(node{kind: kExtVal, param: b.i32(b.nExt - 1)})
}

// ExtVec declares an engine-resident vector of length n, bound via
// Bindings.ExtVecs.
func (b *Builder) ExtVec(n int) bgw.Vec {
	b.nExtVecs++
	return b.vector(node{kind: kExtVec, param: b.i32(b.nExtVecs - 1)}, n)
}

// AddConstP returns a sharing of a + c for the constant parameter c.
func (b *Builder) AddConstP(a bgw.Val, c ConstID) bgw.Val {
	return b.scalar(node{kind: kAddConstP, a: b.val(a), param: b.checkConst(c)})
}

// MulConstP returns a sharing of c·a for the constant parameter c.
func (b *Builder) MulConstP(a bgw.Val, c ConstID) bgw.Val {
	return b.scalar(node{kind: kMulConstP, a: b.val(a), param: b.checkConst(c)})
}

// OpenIdx records an output gate for v and returns its index into
// Result.Opened. This is the recording counterpart of Open for callers
// that need the value after execution.
func (b *Builder) OpenIdx(v bgw.Val) int {
	b.opens = append(b.opens, b.add(node{kind: kOpen, a: b.val(v)}))
	return len(b.opens) - 1
}

// OpenVecIdx records a vector output gate and returns its index into
// Result.OpenedVec.
func (b *Builder) OpenVecIdx(v bgw.Vec) int {
	cv := b.vec(v)
	b.openVecs = append(b.openVecs, b.add(node{kind: kOpenVec, a: cv.id, n: b.i32(cv.n)}))
	return len(b.openVecs) - 1
}

// ---- the gate surface of bgw.Evaluator, recorded ----

// Input records a literal secret input.
//
// The fold rule, for every Input* leaf but InputVecParam: Compile shares
// the sum of what a dealer deals. A leaf whose only consumer is an
// Add/AddVec gate of a sum tree is merged with the same owner's other
// such leaves of that tree into one sharing of their sum, so it — and
// every partial sum over it — no longer exists on its own: Result.VecOf
// on those handles is an invariant violation. A leaf with no consumer
// (a vector shared to be read back through VecOf) or with two or more
// consumers is never folded, and the root of a sum tree keeps its handle
// and its value.
func (b *Builder) Input(owner int, v int64) bgw.Val {
	return b.scalar(node{kind: kInput, owner: b.checkParty(owner), c: v})
}

// InputVec records a literal secret vector input. It folds under the
// rule stated on Input. The builder keeps vs itself, not a copy, and
// never writes it (a folded sum goes to an array of its own): the caller
// must leave vs as it is until the plan has executed for the last time.
func (b *Builder) InputVec(owner int, vs []int64) bgw.Vec {
	nd := node{kind: kInputVec, owner: b.checkParty(owner), a: b.i32(len(b.lits))}
	b.lits = append(b.lits, vs)
	return b.vector(nd, len(vs))
}

// Zero records a trivial sharing of 0.
func (b *Builder) Zero() bgw.Val { return b.scalar(node{kind: kZero}) }

// Add records a + b.
func (b *Builder) Add(a, c bgw.Val) bgw.Val {
	return b.scalar(node{kind: kAdd, a: b.val(a), b: b.val(c)})
}

// Sub records a − b.
func (b *Builder) Sub(a, c bgw.Val) bgw.Val {
	return b.scalar(node{kind: kSub, a: b.val(a), b: b.val(c)})
}

// AddConst records a + c.
func (b *Builder) AddConst(a bgw.Val, c int64) bgw.Val {
	return b.scalar(node{kind: kAddConst, a: b.val(a), c: c})
}

// MulConst records c·a.
func (b *Builder) MulConst(a bgw.Val, c int64) bgw.Val {
	return b.scalar(node{kind: kMulConst, a: b.val(a), c: c})
}

// Mul records the multiplicative gate a·b.
func (b *Builder) Mul(a, c bgw.Val) bgw.Val {
	return b.scalar(node{kind: kMul, a: b.val(a), b: b.val(c)})
}

// InnerProduct records the fused gate Σ_k as[k]·bs[k].
func (b *Builder) InnerProduct(as, bs []bgw.Val) bgw.Val {
	if len(as) != len(bs) {
		panic(invariant.Violation("circuit: InnerProduct length mismatch"))
	}
	off := b.operands(as)
	b.operands(bs)
	return b.scalar(node{kind: kInner, a: off, n: b.i32(len(as))})
}

// At records the element extraction v[k].
func (b *Builder) At(v bgw.Vec, k int) bgw.Val {
	cv := b.vec(v)
	if k < 0 || k >= cv.n {
		panic(invariant.Violation("circuit: vector index out of range"))
	}
	return b.scalar(node{kind: kAt, a: cv.id, b: b.i32(k)})
}

// sameLen resolves two vector handles that must agree in length.
func (b *Builder) sameLen(a, c bgw.Vec) (ca, cc *Vec) {
	ca, cc = b.vec(a), b.vec(c)
	if ca.n != cc.n {
		panic(invariant.Violation("circuit: vector length mismatch"))
	}
	return ca, cc
}

// AddVec records the element-wise sum a + b. Compile computes a tree of
// AddVec gates whose interior gates have one consumer each as one plain
// LinComb over its leaves (see foldSums): Result.VecOf on an interior
// gate is then an invariant violation, and the root keeps its handle.
func (b *Builder) AddVec(a, c bgw.Vec) bgw.Vec {
	ca, cc := b.sameLen(a, c)
	return b.vector(node{kind: kAddVec, a: ca.id, b: cc.id}, ca.n)
}

// LinComb records the fused affine gate c0 + Σ_k cs[k]·vs[k]. The
// coefficients are literals: a circuit whose coefficients change is
// recorded again. Nil coefficients are all 1: the plain sum, which
// meters no field operations (bgw.Evaluator.LinComb).
func (b *Builder) LinComb(vs []bgw.Vec, cs []int64, c0 int64) bgw.Vec {
	if cs != nil && len(vs) != len(cs) {
		panic(invariant.Violation("circuit: LinComb has %d vectors for %d coefficients", len(vs), len(cs)))
	}
	off, n := len(b.args), 0
	for k, v := range vs {
		cv := b.vec(v)
		if k == 0 {
			n = cv.n
		} else if cv.n != n {
			panic(invariant.Violation("circuit: vector length mismatch"))
		}
		b.args = append(b.args, cv.id)
	}
	b.i32(len(b.args))
	nd := node{kind: kLinComb, a: b.i32(off), b: b.i32(len(vs)), param: -1, c: c0}
	if cs != nil {
		nd.param = b.i32(len(b.lits))
		b.lits = append(b.lits, b.ints.Clone(cs))
	}
	return b.vector(nd, n)
}

// Dot records the fused inner product ⟨a, b⟩.
func (b *Builder) Dot(a, c bgw.Vec) bgw.Val { return b.scalar(b.dot(a, c)) }

// dot returns the node of the fused inner product ⟨a, b⟩.
func (b *Builder) dot(a, c bgw.Vec) node {
	ca, cc := b.sameLen(a, c)
	return node{kind: kDot, a: ca.id, b: cc.id}
}

// Hadamard records the element-wise product a ⊙ b, a vector: one
// multiplicative gate however long, whose elements Execute reduces — or
// keeps — together (bgw.MulHadamard).
func (b *Builder) Hadamard(a, c bgw.Vec) bgw.Vec {
	ca, cc := b.sameLen(a, c)
	return b.vector(node{kind: kHadamard, a: ca.id, b: cc.id}, ca.n)
}

// DotBatch records one Dot gate per pair; the scheduler re-batches all
// gates of a level anyway, so the grouping hint is not kept. Packed
// with FromScalars and read by nothing else, the dots compile to one
// vector-valued product (see FromScalars).
func (b *Builder) DotBatch(pairs []bgw.VecPair, workers int) []bgw.Val {
	_ = workers
	// A Gram level records a node and a handle per pair: room for all of
	// them at once, so the level costs no growth per column pair.
	b.nodes = slices.Grow(b.nodes, len(pairs))
	hs := b.vals.Take(len(pairs))
	out := make([]bgw.Val, len(pairs))
	for i, p := range pairs {
		hs[i] = Val{b: b, id: b.add(b.dot(p.A, p.B))}
		out[i] = &hs[i]
	}
	return out
}

// FromScalars records the packing of scalars into a vector. Compile
// computes a packing of Dot gates of one level, each read by nothing
// else, as one vector-valued product in the packing's slot — one
// bgw.MulDots item — and folds the dots (see foldDots); the packing
// keeps its handle and its value.
func (b *Builder) FromScalars(xs []bgw.Val) bgw.Vec {
	return b.vector(node{kind: kFromScalars, a: b.operands(xs)}, len(xs))
}
