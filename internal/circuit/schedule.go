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

	depth int
	// terminal: nothing multiplies after the last multiplicative level —
	// every node of level depth flows through linear gates into an
	// opening — so Execute leaves that level unreduced (see schedule).
	terminal  bool
	live      int       // nodes that compute something (all but kFolded)
	folded    int       // input leaves foldSums removed
	inputs    []int32   // level-0 scalar input leaves Execute shares, id order: one InputBatch
	vecInputs []int32   // level-0 vector input leaves Execute shares, id order: one input round
	unshared  []int32   // scalar input leaves Execute does not share (see schedule), id order
	muls      [][]int32 // muls[L] = multiplicative gates of level L+1, id order
	locals    [][]int32 // locals[L] = other compute nodes of level L that are not open-only, id order
	late      []int32   // the other open-only nodes but the products: entered after the last level, id order
	opens     []int32   // kOpen ids in record order
	openVecs  []int32   // kOpenVec ids in record order

	nConsts, nInputs, nVecParams, nExt, nExtVecs int
	nUnshared                                    int  // input leaves, scalar and vector, Execute does not share
	hasInputs                                    bool // some input leaf is shared: the plan pays the input round
}

// operands returns the n-element operand list at offset off.
func (p *Plan) operands(off, n int32) []int32 { return p.args[off : off+n] }

// Compile folds same-dealer inputs of sums (foldSums), levels the
// recorded DAG by multiplicative depth and returns the execution plan.
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
	if err := p.schedule(); err != nil {
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
	b.spent, b.nodes, b.args, b.lits, b.vals = true, nil, nil, nil, nil
	return p, nil
}

// eachOperand calls visit with every node id n reads, in operand order,
// and reports whether n's kind is known.
func (p *Plan) eachOperand(n *node, visit func(op int32)) bool {
	var list []int32
	switch n.kind {
	case kZero, kInput, kInputElem, kInputVec, kInputParam, kInputVecParam, kInputSum, kInputVecSum, kExtVal, kExtVec, kFolded:
		// leaves (and removed nodes)
	case kAdd, kSub, kAddVec, kMul, kDot:
		visit(n.a)
		visit(n.b)
	case kAddConst, kMulConst, kAddConstP, kMulConstP, kAt, kGather, kOpen, kOpenVec:
		visit(n.a)
	case kLinComb:
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

// schedule assigns levels and lists every level's gates. The leveling
// rule: inputs, external bindings and constants sit at level 0; local
// (linear) operations inherit the maximum level of their operands;
// multiplicative gates (Mul, InnerProduct, Dot) take the maximum operand
// level plus one. All gates of a level are independent by construction
// and execute as one batched communication round; the shared input
// leaves, which depend on nothing, are listed apart so they share in one
// batched round too.
//
// The last multiplicative level is terminal when every node of that
// level has a consumer: a consumer of a top-level node is a linear gate
// of the same level or an opening (a multiplication would sit one level
// up), so every path out of the level's products ends in an opening and
// the degree reduction would prepare for a multiplication that never
// comes. A top-level node nobody consumes keeps the level reduced: its
// handle may be read back through Result.ValOf / VecOf and bound into a
// later plan, which may multiply it.
//
// An input leaf is open-only under the same rule, asked of the leaf: a
// backward sweep marks every node something needs as a degree-t sharing
// — the operands of a multiplication, a node nothing consumes (readable,
// as above), and the operands of a linear gate so marked. A leaf left
// unmarked reaches nothing but openings, through linear gates only, and
// Execute does not share it (bgw.Evaluator.InputUnshared): its owner adds
// it under the opening's zero mask, which costs no frame and — when no
// leaf of the plan is shared — no input round. foldSums has run, so that
// is one leaf per dealer and sum.
//
// Both cases set the one flag Result.ValOf / VecOf refuse: node.openOnly
// starts at the products of a terminal level and at the unshared leaves
// and follows every linear gate forward. Nothing but an opening consumes
// an open-only node, so the open-only nodes but the products — the
// unshared leaves and the linear gates over them — are listed apart and
// Execute enters them after the last multiplicative level, whatever
// their level: an owner may still be computing an unshared vector while
// the engine multiplies (Bindings.InputVecs).
func (p *Plan) schedule() error {
	used := make([]bool, len(p.nodes))
	var lvl int32
	maxLevel := func(op int32) {
		used[op] = true
		if l := p.nodes[op].level; l > lvl {
			lvl = l
		}
	}
	for id := range p.nodes {
		n := &p.nodes[id]
		lvl = 0
		if !p.eachOperand(n, maxLevel) {
			return fmt.Errorf("circuit: unknown node kind %d", n.kind)
		}
		if n.kind.isMul() {
			lvl++
		}
		n.level = lvl
		if int(lvl) > p.depth {
			p.depth = int(lvl)
		}
	}
	// Backward: who needs a degree-t sharing, and whether anything on the
	// last level does.
	strict := make([]bool, len(p.nodes))
	need := func(op int32) { strict[op] = true }
	p.terminal = p.depth > 0
	for id := len(p.nodes) - 1; id >= 0; id-- {
		n := &p.nodes[id]
		if n.kind == kFolded || n.kind == kOpen || n.kind == kOpenVec {
			continue
		}
		if !used[id] {
			strict[id] = true
			if int(n.level) == p.depth {
				p.terminal = false
			}
		}
		if strict[id] || n.kind.isMul() {
			p.eachOperand(n, need)
		}
	}
	// Forward again: the open-only flag, and one counting pass that sizes
	// every schedule list; a last pass fills them. Outputs run in the final
	// opening round and are already listed.
	nMuls := make([]int, p.depth)
	nLocals := make([]int, p.depth+1)
	nInputs, nVecInputs, nUnsharedScalars, nLate := 0, 0, 0, 0
	openOnly := false
	inherit := func(op int32) { openOnly = openOnly || p.nodes[op].openOnly }
	for id := range p.nodes {
		n := &p.nodes[id]
		if n.kind == kFolded {
			continue
		}
		p.live++
		switch {
		case n.kind == kOpen || n.kind == kOpenVec:
			continue
		case n.kind.isInput():
			n.openOnly = !strict[id]
			if n.openOnly {
				p.nUnshared++
			} else {
				p.hasInputs = true
			}
		case n.kind.isMul():
			n.openOnly = p.terminal && int(n.level) == p.depth
		default:
			openOnly = false
			p.eachOperand(n, inherit)
			n.openOnly = openOnly
		}
		switch {
		case n.kind.isScalarInput() && n.openOnly:
			nUnsharedScalars++
		case n.kind.isScalarInput():
			nInputs++
		case n.kind.isMul():
			nMuls[n.level-1]++
		case n.openOnly:
			nLate++
		case n.kind.isInput():
			nVecInputs++
		default:
			nLocals[n.level]++
		}
	}
	p.inputs = make([]int32, 0, nInputs)
	p.vecInputs = make([]int32, 0, nVecInputs)
	p.unshared = make([]int32, 0, nUnsharedScalars)
	p.late = make([]int32, 0, nLate)
	p.muls = make([][]int32, p.depth)
	for l, n := range nMuls {
		p.muls[l] = make([]int32, 0, n)
	}
	p.locals = make([][]int32, p.depth+1)
	for l, n := range nLocals {
		p.locals[l] = make([]int32, 0, n)
	}
	for id := range p.nodes {
		switch n := &p.nodes[id]; {
		case n.kind == kFolded || n.kind == kOpen || n.kind == kOpenVec:
		case n.kind.isScalarInput() && n.openOnly:
			p.unshared = append(p.unshared, int32(id))
		case n.kind.isScalarInput():
			p.inputs = append(p.inputs, int32(id))
		case n.kind.isMul():
			p.muls[n.level-1] = append(p.muls[n.level-1], int32(id))
		case n.openOnly:
			p.late = append(p.late, int32(id))
		case n.kind.isInput():
			p.vecInputs = append(p.vecInputs, int32(id))
		default:
			p.locals[n.level] = append(p.locals[n.level], int32(id))
		}
	}
	return nil
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

// Rounds returns the wire rounds of one planned execution: one input
// round (when the plan shares fresh inputs — an open-only leaf is not
// shared and does not count), one batched degree-reduction round per
// multiplicative level — less the terminal level's, which is opened at
// the degree it has — and one batched opening round (when the plan
// reveals outputs): depth + shared inputs + opens − terminal. This is the
// quantity the paper's cost model charges 0.1 s for — planned execution
// makes it a function of depth, not of gate count.
func (p *Plan) Rounds() int {
	r := p.depth
	if p.hasInputs {
		r++
	}
	if p.hasOpens() {
		r++
	}
	if p.terminal {
		r--
	}
	return r
}
