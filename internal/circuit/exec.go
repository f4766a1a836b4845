package circuit

import (
	"fmt"

	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
)

// Bindings supplies a plan's parameters for one execution, each slice
// indexed by declaration order: Consts for ConstParam, Inputs for
// InputParam, Ext/ExtVecs for engine handles declared with
// ExtVal/ExtVec (they must come from the engine the plan executes on).
type Bindings struct {
	Consts  []int64
	Inputs  []int64
	Ext     []bgw.Val
	ExtVecs []bgw.Vec
}

// Result holds one execution's outputs: the opened values in gate
// record order plus every node's engine handle (for plans that produce
// persistent shares consumed by later plans).
type Result struct {
	plan       *Plan
	vals       []bgw.Val
	vecs       []bgw.Vec
	opened     []int64
	openedVecs [][]int64
}

// Opened returns the k-th scalar output (the index OpenIdx returned).
func (r *Result) Opened(k int) int64 { return r.opened[k] }

// OpenedVec returns the k-th vector output.
func (r *Result) OpenedVec(k int) []int64 { return r.openedVecs[k] }

// ValOf returns the engine handle the execution produced for a
// recorded scalar, for use as an ExtVal binding of a later plan. Two
// kinds of handle do not resolve, and asking for one is an invariant
// violation: a handle Compile folded into its dealer's sum (see
// Builder.Input) has no sharing of its own, and an open-only node (see
// Plan.schedule) — on a terminal level, or downstream of an input the
// plan did not share — holds a sharing of degree above t that only an
// opening may consume.
func (r *Result) ValOf(h bgw.Val) bgw.Val {
	v, ok := h.(*Val)
	if !ok {
		panic(invariant.Violation("circuit: ValOf needs a circuit handle"))
	}
	r.plan.checkReadable(v.id)
	return r.vals[v.id]
}

// VecOf returns the engine handle for a recorded vector, under ValOf's
// rule for folded and open-only handles.
func (r *Result) VecOf(h bgw.Vec) bgw.Vec {
	v, ok := h.(*Vec)
	if !ok {
		panic(invariant.Violation("circuit: VecOf needs a circuit handle"))
	}
	r.plan.checkReadable(v.id)
	return r.vecs[v.id]
}

func (p *Plan) checkReadable(id int32) {
	n := &p.nodes[id]
	if n.folded {
		panic(invariant.Violation("circuit: node %d was folded into its dealer's input sum by Compile and has no sharing of its own; give the leaf a second consumer or read the sum tree's root", id))
	}
	if n.openOnly {
		panic(invariant.Violation("circuit: node %d sits on the plan's terminal level, which Execute left unreduced, or downstream of an input leaf Execute did not share: its sharing has degree above t and may only be opened; record a handle nothing consumes over it to keep the level reduced and the leaf shared", id))
	}
}

// validate checks the bindings against the plan's parameter counts.
func (p *Plan) validate(bind Bindings) error {
	if len(bind.Consts) != p.nConsts {
		return fmt.Errorf("circuit: plan wants %d const params, got %d", p.nConsts, len(bind.Consts))
	}
	if len(bind.Inputs) != p.nInputs {
		return fmt.Errorf("circuit: plan wants %d input params, got %d", p.nInputs, len(bind.Inputs))
	}
	if len(bind.Ext) != p.nExt {
		return fmt.Errorf("circuit: plan wants %d external values, got %d", p.nExt, len(bind.Ext))
	}
	if len(bind.ExtVecs) != p.nExtVecs {
		return fmt.Errorf("circuit: plan wants %d external vectors, got %d", p.nExtVecs, len(bind.ExtVecs))
	}
	return nil
}

// Execute runs the plan against eng with level batching: all shared
// inputs share in one round (every scalar input in one InputBatch, one
// frame per owner and peer; one frame per peer for each input vector),
// each multiplicative level runs as one batched degree-reduction round —
// except a terminal level, whose products stay at degree 2t in their
// slots at the cost of no traffic and no round — and all outputs open in
// one batched round: Stats.Rounds advances by exactly Plan.Rounds(). The
// open-only input leaves (see schedule) enter unshared, at the cost of no
// traffic and — when the plan shares no other leaf — no round.
//
// When the engine's recorder admits debug events, the execution is
// traced: one "circuit.exec" span for the whole run with one
// "circuit.level" child per multiplicative level (reduced=false and no
// frames on a terminal one) and a "circuit.open" child for the output
// round, each carrying gate counts and the engine's frame/round deltas.
// Disabled telemetry skips all of it (the spans are inert and Stats is
// never read).
func (p *Plan) Execute(eng bgw.Evaluator, bind Bindings) (*Result, error) {
	if err := p.validate(bind); err != nil {
		return nil, err
	}
	rec := eng.Recorder()
	exec := obs.StartTracedSpan(rec, "circuit.exec", 0,
		obs.Int("depth", p.depth), obs.Int("nodes", p.live), obs.Int("folded_inputs", p.folded),
		obs.Int("unshared_inputs", p.nUnshared))
	var prev bgw.Stats
	if exec.Active() {
		prev = eng.Stats()
	}
	r := &Result{
		plan: p,
		vals: make([]bgw.Val, len(p.nodes)),
		vecs: make([]bgw.Vec, len(p.nodes)),
	}
	// Level 0: the scalar inputs first — they depend on nothing, so they
	// share as one batch, and the open-only ones enter as one unshared
	// vector per owner — then the input vectors, external bindings and the
	// linear closure.
	if len(p.inputs) > 0 {
		items := make([]bgw.InputItem, len(p.inputs))
		for i, id := range p.inputs {
			n := &p.nodes[id]
			items[i] = bgw.InputItem{Owner: int(n.owner), Elem: p.inputElem(n, bind)}
		}
		for i, out := range eng.InputBatch(items) {
			r.vals[p.inputs[i]] = out
		}
	}
	if len(p.unshared) > 0 {
		p.enterUnsharedScalars(eng, bind, r)
	}
	for _, id := range p.locals[0] {
		if err := p.evalLocal(eng, bind, r, id); err != nil {
			return nil, err
		}
	}
	if p.hasInputs {
		eng.AdvanceRound()
	}
	// levelDelta closes one child span with the engine's traffic deltas
	// since the previous close.
	levelDelta := func(sp obs.TracedSpan) {
		if !sp.Active() {
			return
		}
		s := eng.Stats()
		sp.End(
			obs.Int64("frames", s.Frames-prev.Frames),
			obs.Int64("rounds", s.Rounds-prev.Rounds),
			obs.Int64("bytes", s.Bytes-prev.Bytes))
		prev = s
	}
	for lvl := 1; lvl <= p.depth; lvl++ {
		gates := p.muls[lvl-1]
		reduce := lvl < p.depth || !p.terminal
		sp := obs.StartTracedSpan(rec, "circuit.level", exec.ID(),
			obs.Int("level", lvl), obs.Int("gates", len(gates)), obs.Bool("reduced", reduce))
		items := make([]bgw.MulItem, len(gates))
		for i, id := range gates {
			n := &p.nodes[id]
			switch n.kind {
			case kMul:
				items[i] = bgw.MulItem{Kind: bgw.MulScalar, A: r.vals[n.a], B: r.vals[n.b]}
			case kInner:
				as, bs := p.innerOperands(r, n)
				items[i] = bgw.MulItem{Kind: bgw.MulInner, As: as, Bs: bs}
			case kDot:
				items[i] = bgw.MulItem{Kind: bgw.MulDot, VA: r.vecs[n.a], VB: r.vecs[n.b]}
			}
		}
		var outs []bgw.Val
		if reduce {
			outs = eng.MulBatch(items)
			eng.AdvanceRound()
		} else {
			outs = eng.MulBatchUnreduced(items)
		}
		for i, out := range outs {
			r.vals[gates[i]] = out
		}
		levelDelta(sp)
		for _, id := range p.locals[lvl] {
			if err := p.evalLocal(eng, bind, r, id); err != nil {
				return nil, err
			}
		}
	}
	if p.hasOpens() {
		sp := obs.StartTracedSpan(rec, "circuit.open", exec.ID(),
			obs.Int("opens", len(p.opens)), obs.Int("open_vecs", len(p.openVecs)))
		if len(p.opens) > 0 {
			vals := make([]bgw.Val, len(p.opens))
			for i, id := range p.opens {
				vals[i] = r.vals[p.nodes[id].a]
			}
			r.opened = eng.OpenBatch(vals)
		}
		r.openedVecs = make([][]int64, len(p.openVecs))
		for i, id := range p.openVecs {
			r.openedVecs[i] = eng.OpenVec(r.vecs[p.nodes[id].a])
		}
		eng.AdvanceRound()
		levelDelta(sp)
	}
	exec.End()
	return r, nil
}

// inputElem returns the field element a scalar input leaf shares.
func (p *Plan) inputElem(n *node, bind Bindings) field.Elem {
	switch n.kind {
	case kInputElem:
		return field.Elem(n.c)
	case kInputParam:
		return field.FromInt64(bind.Inputs[n.param])
	case kInputSum:
		e := field.Elem(n.c)
		for _, slot := range p.operands(n.a, n.b) {
			e = field.Add(e, field.FromInt64(bind.Inputs[slot]))
		}
		return e
	}
	return field.FromInt64(n.c)
}

// enterUnsharedScalars enters the open-only scalar leaves without a
// sharing: every owner's, in id order, as one unshared vector that At
// takes apart again — one command per owner, metered per element like
// an unshared vector leaf.
func (p *Plan) enterUnsharedScalars(eng bgw.Evaluator, bind Bindings, r *Result) {
	for owner := int32(0); int(owner) < p.p; owner++ {
		var own []int64
		for _, id := range p.unshared {
			if n := &p.nodes[id]; n.owner == owner {
				own = append(own, field.ToInt64(p.inputElem(n, bind)))
			}
		}
		if len(own) == 0 {
			continue
		}
		v, k := eng.InputUnshared(int(owner), own), 0
		for _, id := range p.unshared {
			if p.nodes[id].owner == owner {
				r.vals[id] = eng.At(v, k)
				k++
			}
		}
	}
}

// inputLit returns the literal a vector input leaf deals: its own, or the
// sum foldSums left for its dealer.
func (p *Plan) inputLit(n *node) []int64 {
	if n.kind == kInputVecSum {
		return p.lits[n.param]
	}
	return p.lits[n.a]
}

// evalLocal materializes one vector leaf, external binding or linear
// node on the engine (scalar input leaves share in Execute's InputBatch).
func (p *Plan) evalLocal(eng bgw.Evaluator, bind Bindings, r *Result, id int32) error {
	n := &p.nodes[id]
	switch n.kind {
	case kZero:
		r.vals[id] = eng.Zero()
	case kInputVec, kInputVecSum:
		if n.openOnly {
			r.vecs[id] = eng.InputUnshared(int(n.owner), p.inputLit(n))
		} else {
			r.vecs[id] = eng.InputVec(int(n.owner), p.inputLit(n))
		}
	case kExtVal:
		if bind.Ext[n.param] == nil {
			return fmt.Errorf("circuit: external value %d unbound", n.param)
		}
		r.vals[id] = bind.Ext[n.param]
	case kExtVec:
		v := bind.ExtVecs[n.param]
		if v == nil {
			return fmt.Errorf("circuit: external vector %d unbound", n.param)
		}
		if v.Len() != int(n.n) {
			return fmt.Errorf("circuit: external vector %d has %d elements, plan wants %d", n.param, v.Len(), n.n)
		}
		r.vecs[id] = v
	case kAdd:
		r.vals[id] = eng.Add(r.vals[n.a], r.vals[n.b])
	case kSub:
		r.vals[id] = eng.Sub(r.vals[n.a], r.vals[n.b])
	case kAddConst:
		r.vals[id] = eng.AddConst(r.vals[n.a], n.c)
	case kMulConst:
		r.vals[id] = eng.MulConst(r.vals[n.a], n.c)
	case kAddConstP:
		r.vals[id] = eng.AddConst(r.vals[n.a], bind.Consts[n.param])
	case kMulConstP:
		r.vals[id] = eng.MulConst(r.vals[n.a], bind.Consts[n.param])
	case kAt:
		r.vals[id] = eng.At(r.vecs[n.a], int(n.b))
	case kAddVec:
		r.vecs[id] = eng.AddVec(r.vecs[n.a], r.vecs[n.b])
	case kGather:
		idx := make([]int, n.n)
		for k, i := range p.operands(n.param, n.n) {
			idx[k] = int(i)
		}
		r.vecs[id] = eng.Gather(r.vecs[n.a], idx)
	case kLinComb:
		vs := make([]bgw.Vec, n.b)
		for k, op := range p.operands(n.a, n.b) {
			vs[k] = r.vecs[op]
		}
		r.vecs[id] = eng.LinComb(vs, p.lits[n.param], n.c)
	case kFromScalars:
		r.vecs[id] = eng.FromScalars(gather(r.vals, p.operands(n.a, n.n)))
	default:
		return fmt.Errorf("circuit: node %d kind %d is not local", id, n.kind)
	}
	return nil
}

// innerOperands gathers the two operand lists of a kInner gate.
func (p *Plan) innerOperands(r *Result, n *node) (as, bs []bgw.Val) {
	return gather(r.vals, p.operands(n.a, n.n)), gather(r.vals, p.operands(n.a+n.n, n.n))
}

func gather(vals []bgw.Val, ids []int32) []bgw.Val {
	out := make([]bgw.Val, len(ids))
	for i, id := range ids {
		out[i] = vals[id]
	}
	return out
}
