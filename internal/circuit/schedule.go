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
	terminal bool
	live     int       // nodes that compute something (all but kFolded)
	folded   int       // input leaves foldSums removed
	inputs   []int32   // level-0 scalar input leaves, id order: one InputBatch
	muls     [][]int32 // muls[L] = multiplicative gates of level L+1, id order
	locals   [][]int32 // locals[L] = other compute nodes of level L, id order
	opens    []int32   // kOpen ids in record order
	openVecs []int32   // kOpenVec ids in record order

	nConsts, nInputs, nExt, nExtVecs int
	hasInputs                        bool
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
		nConsts: b.nConsts, nInputs: b.nInputs, nExt: b.nExt, nExtVecs: b.nExtVecs,
	}
	b.spent, b.nodes, b.args, b.lits, b.vals = true, nil, nil, nil, nil
	return p, nil
}

// schedule assigns levels and lists every level's gates. The leveling
// rule: inputs, external bindings and constants sit at level 0; local
// (linear) operations inherit the maximum level of their operands;
// multiplicative gates (Mul, InnerProduct, Dot) take the maximum operand
// level plus one. All gates of a level are independent by construction
// and execute as one batched communication round; the scalar inputs,
// which depend on nothing, are listed apart so they share in one batched
// round too.
//
// The last multiplicative level is terminal when every node of that
// level has a consumer: a consumer of a top-level node is a linear gate
// of the same level or an opening (a multiplication would sit one level
// up), so every path out of the level's products ends in an opening and
// the degree reduction would prepare for a multiplication that never
// comes. A top-level node nobody consumes keeps the level reduced: its
// handle may be read back through Result.ValOf / VecOf and bound into a
// later plan, which may multiply it.
func (p *Plan) schedule() error {
	used := make([]bool, len(p.nodes))
	for id := range p.nodes {
		n := &p.nodes[id]
		var lvl int32
		max := func(op int32) {
			used[op] = true
			if l := p.nodes[op].level; l > lvl {
				lvl = l
			}
		}
		switch n.kind {
		case kZero, kInput, kInputElem, kInputVec, kInputParam, kInputSum, kInputVecSum, kExtVal, kExtVec, kFolded:
			// leaves (and removed nodes): level 0
		case kAdd, kSub, kAddVec, kMul, kDot:
			max(n.a)
			max(n.b)
		case kAddConst, kMulConst, kAddConstP, kMulConstP, kAt, kGather, kOpen, kOpenVec:
			max(n.a)
		case kLinComb:
			for _, op := range p.operands(n.a, n.b) {
				max(op)
			}
		case kInner:
			for _, op := range p.operands(n.a, 2*n.n) {
				max(op)
			}
		case kFromScalars:
			for _, op := range p.operands(n.a, n.n) {
				max(op)
			}
		default:
			return fmt.Errorf("circuit: unknown node kind %d", n.kind)
		}
		if n.kind.isMul() {
			lvl++
		}
		n.level = lvl
		if n.kind.isInput() {
			p.hasInputs = true
		}
		if int(lvl) > p.depth {
			p.depth = int(lvl)
		}
	}
	// One counting pass sizes every schedule list, a second fills them.
	// Outputs run in the final opening round and are already listed.
	nMuls := make([]int, p.depth)
	nLocals := make([]int, p.depth+1)
	nInputs := 0
	p.terminal = p.depth > 0
	for id := range p.nodes {
		n := &p.nodes[id]
		if n.kind == kFolded {
			continue
		}
		p.live++
		switch {
		case n.kind == kOpen || n.kind == kOpenVec:
			continue
		case n.kind.isScalarInput():
			nInputs++
		case n.kind.isMul():
			nMuls[n.level-1]++
		default:
			nLocals[n.level]++
		}
		if int(n.level) == p.depth && !used[id] {
			p.terminal = false
		}
	}
	p.inputs = make([]int32, 0, nInputs)
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
		case n.kind.isScalarInput():
			p.inputs = append(p.inputs, int32(id))
		case n.kind.isMul():
			p.muls[n.level-1] = append(p.muls[n.level-1], int32(id))
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
// round (when the plan shares fresh inputs), one batched degree-reduction
// round per multiplicative level — less the terminal level's, which is
// opened at the degree it has — and one batched opening round (when the
// plan reveals outputs): depth + inputs + opens − terminal. This is the
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
