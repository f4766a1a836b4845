package circuit

import (
	"fmt"

	"sqm/internal/invariant"
)

// Plan is a compiled, level-scheduled circuit. It is immutable and
// engine-agnostic: the same plan executes against the BGW engine under
// either driver or the plain interpreter, with outputs bit-identical
// across all of them.
type Plan struct {
	p, t  int
	nodes []node
	args  []int32   // operand-list arena (see node)
	lits  [][]int64 // literal input vectors (see node)

	depth     int
	live      int        // nodes that compute something (all but kFolded)
	folded    int        // input leaves foldSums removed
	inputs    []int32    // level-0 scalar input leaves Execute shares, id order: one InputVec per owner
	vecInputs []int32    // level-0 vector input leaves Execute shares, id order: one input round
	unshared  []int32    // scalar input leaves Execute does not share (see schedule), id order
	muls      []mulLevel // muls[L] = multiplicative gates of level L+1
	locals    [][]int32  // locals[L] = other compute nodes of level L that are not late, id order
	late      []int32    // the unshared input leaves and the linear gates over them: entered after the last level, id order
	opens     []int32    // kOpen ids in record order
	openVecs  []int32    // kOpenVec ids in record order

	nConsts, nInputs, nVecParams, nExt, nExtVecs int
	nUnshared                                    int  // input leaves, scalar and vector, Execute does not share
	hasInputs                                    bool // some input leaf is shared: the plan pays the input round
}

// mulLevel lists one multiplicative level's gates, id order in each.
type mulLevel struct {
	reshare []int32 // reduced to degree t: one MulBatch and the level's round
	keep    []int32 // left at the degree of their products: one MulBatchUnreduced, no traffic
}

// operands returns the n-element operand list at offset off.
func (p *Plan) operands(off, n int32) []int32 { return p.args[off : off+n] }

// dots returns a kDots's distinct operand vectors and its index pairs
// into them, two per dot.
func (p *Plan) dots(n *node) (vecs, pairs []int32) {
	return p.operands(n.a, n.b), p.operands(n.a+n.b, 2*n.n)
}

// coefs returns a kLinComb's coefficients: nil for the plain sum.
func (p *Plan) coefs(n *node) []int64 {
	if n.param < 0 {
		return nil
	}
	return p.lits[n.param]
}

// Compile folds same-dealer inputs of sums and every vector sum tree
// into one gate (foldSums), levels the recorded DAG by multiplicative
// depth, folds every packing of one level's dots into one product
// (foldDots) and returns the execution plan.
//
// The plan takes the recording over instead of copying it: the Builder
// is spent, and recording into it again is an invariant violation.
func (b *Builder) Compile() (*Plan, error) {
	p, err := b.take()
	if err != nil {
		return nil, err
	}
	if err := p.foldSums(b.limit); err != nil {
		return nil, err
	}
	uses, err := p.level()
	if err != nil {
		return nil, err
	}
	if err := p.foldDots(uses, b.limit); err != nil {
		return nil, err
	}
	if err := p.schedule(uses); err != nil {
		return nil, err
	}
	return p, nil
}

// errIDSpace reports a recording whose ids, offsets or lengths outgrew
// the IR's int32 fields.
func errIDSpace(limit int) error {
	return fmt.Errorf("circuit: recording exceeds the IR's %d-entry id space", limit)
}

// take moves the recording into a fresh, unscheduled plan.
func (b *Builder) take() (*Plan, error) {
	if b.spent {
		return nil, fmt.Errorf("circuit: builder already compiled")
	}
	if b.overflow {
		return nil, errIDSpace(b.limit)
	}
	p := &Plan{
		p: b.p, t: b.t,
		nodes: b.nodes, args: b.args, lits: b.lits,
		opens: b.opens, openVecs: b.openVecs,
		nConsts: b.nConsts, nInputs: b.nInputs, nVecParams: b.nVecParams, nExt: b.nExt, nExtVecs: b.nExtVecs,
	}
	b.spent, b.nodes, b.args, b.lits = true, nil, nil, nil
	return p, nil
}

// eachOperand calls visit with every node id n reads, in operand order,
// and reports whether n's kind is known.
func (p *Plan) eachOperand(n *node, visit func(op int32)) bool {
	var list []int32
	switch n.kind {
	case kZero, kInput, kInputVec, kInputParam, kInputVecParam, kInputSum, kInputVecSum, kExtVal, kExtVec, kFolded:
		// leaves (and removed nodes)
	case kAdd, kSub, kAddVec, kMul, kDot, kHadamard:
		visit(n.a)
		visit(n.b)
	case kAddConst, kMulConst, kAddConstP, kMulConstP, kAt, kOpen, kOpenVec:
		visit(n.a)
	case kLinComb, kDots:
		list = p.operands(n.a, n.b)
	case kInner:
		list = p.operands(n.a, 2*n.n)
	case kFromScalars:
		list = p.operands(n.a, n.n)
	default:
		return false
	}
	for _, op := range list {
		visit(op)
	}
	return true
}

// level assigns every node its multiplicative level, and the plan its
// depth, and returns how many gates read each node, counted up to two.
// The leveling rule: inputs, external bindings and constants sit at
// level 0; local (linear) operations inherit the maximum level of their
// operands; multiplicative gates (Mul, InnerProduct, Dot, Hadamard and
// foldDots' vectors of dots) take the maximum operand level plus one.
// All gates of a level are independent by construction.
func (p *Plan) level() ([]uint8, error) {
	uses := make([]uint8, len(p.nodes))
	var lvl int32
	maxLevel := func(op int32) {
		uses[op] = min(uses[op]+1, 2)
		if l := p.nodes[op].level; l > lvl {
			lvl = l
		}
	}
	for id := range p.nodes {
		n := &p.nodes[id]
		lvl = 0
		if !p.eachOperand(n, maxLevel) {
			return nil, fmt.Errorf("circuit: unknown node kind %d", n.kind)
		}
		if n.kind.isMul() {
			lvl++
		}
		n.level = lvl
		if int(lvl) > p.depth {
			p.depth = int(lvl)
		}
	}
	return uses, nil
}

// schedule assigns degrees and lists every level's gates, given the
// levels and the consumer counts uses of level. A level's gates execute
// as one batched communication round — or none, when none of them is
// reshared (see assignDegrees); the shared input leaves, which depend on
// nothing, are listed apart so they share in one batched round too.
//
// An input leaf is shared when something needs it as a degree-t
// sharing: a backward sweep marks the operands of a multiplication, a
// node nothing consumes (its handle may be read back through
// Result.VecOf and bound into a later plan, which may multiply
// it), and the operands of a linear gate so marked. A leaf left unmarked
// reaches nothing but openings, through linear gates only, and Execute
// does not share it (bgw.Evaluator.InputUnshared): its owner adds it
// under the opening's zero mask, which costs no frame and — when no leaf
// of the plan is shared — no input round. foldSums has run, so that is
// one leaf per dealer and sum. Such a leaf and the linear gates over it
// are late: nothing but an opening consumes them, so they are listed
// apart and Execute enters them after the last multiplicative level,
// whatever their level — an owner may still be computing an unshared
// vector while the engine multiplies (Bindings.InputVecs).
func (p *Plan) schedule(uses []uint8) error {
	// Backward: who needs a degree-t sharing of an input leaf.
	strict := make([]bool, len(p.nodes))
	need := func(op int32) { strict[op] = true }
	for id := len(p.nodes) - 1; id >= 0; id-- {
		n := &p.nodes[id]
		if n.kind == kFolded || n.kind == kOpen || n.kind == kOpenVec {
			continue
		}
		if uses[id] == 0 {
			strict[id] = true
		}
		if strict[id] || n.kind.isMul() {
			p.eachOperand(n, need)
		}
	}
	if err := p.assignDegrees(uses, strict); err != nil {
		return err
	}
	// One counting pass sizes every schedule list; a last pass fills
	// them. Outputs run in the final opening round and are already listed.
	nMuls := make([]int, 2*p.depth) // reshared, then kept, per level
	nLocals := make([]int, p.depth+1)
	nInputs, nVecInputs, nUnsharedScalars, nLate := 0, 0, 0, 0
	for id := range p.nodes {
		n := &p.nodes[id]
		if n.kind == kFolded {
			continue
		}
		p.live++
		switch {
		case n.kind == kOpen || n.kind == kOpenVec:
		case n.kind.isScalarInput() && n.late:
			nUnsharedScalars++
		case n.kind.isScalarInput():
			nInputs++
		case n.kind.isMul() && n.reshare:
			nMuls[2*n.level-2]++
		case n.kind.isMul():
			nMuls[2*n.level-1]++
		case n.late:
			nLate++
		case n.kind.isInput():
			nVecInputs++
		default:
			nLocals[n.level]++
		}
		if n.kind.isInput() {
			if n.late {
				p.nUnshared++
			} else {
				p.hasInputs = true
			}
		}
	}
	p.inputs = make([]int32, 0, nInputs)
	p.vecInputs = make([]int32, 0, nVecInputs)
	p.unshared = make([]int32, 0, nUnsharedScalars)
	p.late = make([]int32, 0, nLate)
	p.muls = make([]mulLevel, p.depth)
	for l := range p.muls {
		p.muls[l] = mulLevel{reshare: make([]int32, 0, nMuls[2*l]), keep: make([]int32, 0, nMuls[2*l+1])}
	}
	p.locals = make([][]int32, p.depth+1)
	for l, n := range nLocals {
		p.locals[l] = make([]int32, 0, n)
	}
	for id := range p.nodes {
		switch n := &p.nodes[id]; {
		case n.kind == kFolded || n.kind == kOpen || n.kind == kOpenVec:
		case n.kind.isScalarInput() && n.late:
			p.unshared = append(p.unshared, int32(id))
		case n.kind.isScalarInput():
			p.inputs = append(p.inputs, int32(id))
		case n.kind.isMul() && n.reshare:
			ml := &p.muls[n.level-1]
			ml.reshare = append(ml.reshare, int32(id))
		case n.kind.isMul():
			ml := &p.muls[n.level-1]
			ml.keep = append(ml.keep, int32(id))
		case n.late:
			p.late = append(p.late, int32(id))
		case n.kind.isInput():
			p.vecInputs = append(p.vecInputs, int32(id))
		default:
			p.locals[n.level] = append(p.locals[n.level], int32(id))
		}
	}
	return nil
}

// assignDegrees gives every node the degree of the sharing Execute
// leaves there and decides, product by product, which products Execute
// reshares. The degree rule: a shared input leaf and an external binding
// have degree t, an unshared leaf P−1, Zero 0, a linear gate the largest
// of its operands', a reshared product t and any other product the sum
// of its operands' degrees (the largest pair's, for an inner product and
// a vector of dots).
// Every degree up to P−1 opens, so a product stays at the degree it has
// unless
//
//   - a multiplication over it would go above P−1: the operand of lower
//     degree is brought down to t if even t beside it would not fit, and
//     else the other operand to what fits beside it; or
//   - a node nothing consumes reads it through linear gates — a handle a
//     later plan may bind and multiply, which must be of degree t.
//
// To bring an operand down to a degree is to reshare every product of
// greater degree it reads through linear gates (lower). Resharing only
// lowers degrees, so the walk in id order rewinds to the first product
// it marks and goes on from there; it ends, because every rewind marks a
// product that stays marked.
func (p *Plan) assignDegrees(uses []uint8, strict []bool) error {
	t, top := int32(p.t), int32(p.p-1)
	low := lowering{plan: p}
	for id := 0; id < len(p.nodes); id++ {
		n := &p.nodes[id]
		switch {
		case n.kind == kFolded || n.kind == kOpen || n.kind == kOpenVec:
			continue
		case n.kind.isInput():
			n.deg, n.late = t, !strict[id]
			if n.late {
				n.deg = top
			}
		case n.kind == kExtVal || n.kind == kExtVec:
			n.deg = t
		case n.kind.isMul():
			from, err := p.fitProduct(n, &low)
			if err != nil {
				return err
			}
			if from >= 0 {
				id = int(from) - 1
				continue
			}
			n.deg = t
			if !n.reshare {
				n.deg = 0
				p.eachPair(n, func(a, b int32) { n.deg = max(n.deg, p.nodes[a].deg+p.nodes[b].deg) })
			}
		default:
			n.deg, n.late = 0, false
			p.eachOperand(n, func(op int32) {
				o := &p.nodes[op]
				n.deg, n.late = max(n.deg, o.deg), n.late || o.late
			})
		}
		if uses[id] == 0 && n.deg > t {
			if from := low.lower(int32(id), t); from >= 0 {
				id = int(from) - 1
			}
		}
	}
	return nil
}

// fitProduct checks every operand pair of the product n against P−1
// and, at the first that does not fit, lowers one operand (see
// assignDegrees). It returns the first product it marked, where the
// degree walk resumes, or −1 when every pair fits. Only a threshold with
// 2t > P−1 leaves a pair nothing to reshare.
func (p *Plan) fitProduct(n *node, low *lowering) (int32, error) {
	t, top := int32(p.t), int32(p.p-1)
	hi, lo := int32(-1), int32(-1)
	p.eachPair(n, func(a, b int32) {
		if hi < 0 && p.nodes[a].deg+p.nodes[b].deg > top {
			hi, lo = a, b
		}
	})
	if hi < 0 {
		return -1, nil
	}
	if p.nodes[lo].deg > p.nodes[hi].deg {
		hi, lo = lo, hi
	}
	from := int32(-1)
	if d := p.nodes[lo].deg; d > top-t {
		from = low.lower(lo, t)
	} else {
		from = low.lower(hi, top-d)
	}
	if from < 0 {
		return -1, fmt.Errorf("circuit: nodes %d and %d multiply to degree %d, above P−1 = %d, with no product to reshare (t = %d)",
			hi, lo, p.nodes[hi].deg+p.nodes[lo].deg, top, t)
	}
	return from, nil
}

// eachPair calls visit with the operand ids of every product the
// multiplicative node n sums or lists: one pair for Mul, Dot and
// Hadamard, one per term for InnerProduct and one per dot for a kDots.
func (p *Plan) eachPair(n *node, visit func(a, b int32)) {
	switch n.kind {
	case kInner:
		as, bs := p.operands(n.a, n.n), p.operands(n.a+n.n, n.n)
		for k := range as {
			visit(as[k], bs[k])
		}
	case kDots:
		vecs, pairs := p.dots(n)
		for k := 0; k < len(pairs); k += 2 {
			visit(vecs[pairs[k]], vecs[pairs[k+1]])
		}
	default:
		visit(n.a, n.b)
	}
}

// lowering brings a node's degree down by resharing the products it
// reads through linear gates.
type lowering struct {
	plan  *Plan
	seen  []uint32 // the walk that last visited each node; nil until the first
	walk  uint32
	stack []int32
}

// lower marks for resharing every product of degree above limit that id
// reads through linear gates (id itself, if it is one) and returns the
// smallest id it marked, or −1. Nodes of degree at most limit read no
// such product and are not entered.
func (l *lowering) lower(id, limit int32) int32 {
	p := l.plan
	if l.seen == nil {
		l.seen = make([]uint32, len(p.nodes))
	}
	l.walk++
	first := int32(-1)
	l.stack = append(l.stack[:0], id)
	for len(l.stack) > 0 {
		id := l.stack[len(l.stack)-1]
		l.stack = l.stack[:len(l.stack)-1]
		n := &p.nodes[id]
		if l.seen[id] == l.walk || n.deg <= limit {
			continue
		}
		l.seen[id] = l.walk
		if !n.kind.isMul() {
			p.eachOperand(n, func(op int32) { l.stack = append(l.stack, op) })
			continue
		}
		n.reshare = true
		if first < 0 || id < first {
			first = id
		}
	}
	return first
}

// MustCompile is Compile for statically known-good circuits.
func (b *Builder) MustCompile() *Plan {
	p, err := b.Compile()
	if err != nil {
		panic(invariant.Violation("circuit: %v", err))
	}
	return p
}

// Depth returns the circuit's multiplicative depth.
func (p *Plan) Depth() int { return p.depth }

// Gates returns the node count of the IR the plan executes.
func (p *Plan) Gates() int { return p.live }

// Opens returns the number of scalar output gates.
func (p *Plan) Opens() int { return len(p.opens) }

// hasOpens reports whether the plan ends with an opening round.
func (p *Plan) hasOpens() bool { return len(p.opens) > 0 || len(p.openVecs) > 0 }

// Rounds returns the wire rounds of one planned execution, each an
// exchange the engine issues: one input round (when the plan shares
// fresh inputs — an unshared leaf does not count), one batched
// degree-reduction round per multiplicative level that reshares a
// product (see assignDegrees) — a level whose products all keep their
// degree costs none — and the opening rounds (openRounds). This is the
// quantity the paper's cost model charges 0.1 s for — planned execution
// makes it a function of the levels and the outputs, not of gate count.
func (p *Plan) Rounds() int {
	r := p.openRounds()
	for _, ml := range p.muls {
		if len(ml.reshare) > 0 {
			r++
		}
	}
	if p.hasInputs {
		r++
	}
	return r
}

// openRounds returns the exchanges the plan's outputs take: one for the
// scalars (one OpenBatch) and one per vector (an OpenVec each).
func (p *Plan) openRounds() int {
	r := len(p.openVecs)
	if len(p.opens) > 0 {
		r++
	}
	return r
}
