package circuit

import (
	"fmt"
	"slices"

	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
)

// Bindings supplies a plan's parameters for one execution, each slice
// indexed by declaration order: Consts for ConstParam, Inputs for
// InputParam, Ext/ExtVecs for engine handles declared with
// ExtVal/ExtVec (they must come from the engine the plan executes on).
// InputVecs returns the vectors of InputVecParam, one per declaration:
// an execution calls it once, when it first needs one of them, so what
// it returns may still be computed while the plan runs.
type Bindings struct {
	Consts    []int64
	Inputs    []int64
	InputVecs func() [][]int64
	Ext       []bgw.Val
	ExtVecs   []bgw.Vec
}

// Result holds one execution's outputs: the opened values in gate
// record order plus every node's engine handle (for plans that produce
// persistent shares consumed by later plans).
type Result struct {
	plan       *Plan
	vals       []bgw.Val
	vecs       []bgw.Vec
	vecArgs    [][]int64 // what Bindings.InputVecs returned; nil until asked
	opened     []int64
	openedVecs [][]int64

	// The operand lists of evalLocal's list gates (LinComb,
	// FromScalars), reused from gate to gate: bgw.Engine copies what it
	// keeps of them.
	opVecs []bgw.Vec
	opVals []bgw.Val
}

// Opened returns the k-th scalar output (the index OpenIdx returned).
func (r *Result) Opened(k int) int64 { return r.opened[k] }

// OpenedVec returns the k-th vector output.
func (r *Result) OpenedVec(k int) []int64 { return r.openedVecs[k] }

// VecOf returns the engine handle the execution produced for a recorded
// vector, for use as an ExtVec binding of a later plan. Two kinds of
// handle do not resolve, and asking for one is an invariant violation: a
// handle Compile folded — into its dealer's input sum (see
// Builder.Input), or as an interior gate of a vector sum tree, which
// Compile computes as one gate (see Builder.AddVec) — has no sharing of
// its own, and an open-only node — a product Execute did not reshare, an
// input it did not share, or a linear gate over either (see
// Plan.assignDegrees) — holds a sharing of degree above t, which a later
// plan's multiplication may not assume.
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
		panic(invariant.Violation("circuit: node %d was folded by Compile, into its dealer's input sum or its vector sum tree's one gate, and has no sharing of its own; give it a second consumer or read the sum tree's root", id))
	}
	if n.deg > int32(p.t) {
		panic(invariant.Violation("circuit: node %d reads a product Execute did not reshare or an input leaf it did not share: its sharing has degree %d, above t = %d; record a handle nothing consumes over it to have the products reshared and the leaf shared", id, n.deg, p.t))
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
	if p.nVecParams > 0 && bind.InputVecs == nil {
		return fmt.Errorf("circuit: plan wants %d input vectors, Bindings.InputVecs is nil", p.nVecParams)
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
// inputs share in the engine's one input round (every owner's scalar
// inputs one InputVec, taken apart with At, and every input vector an
// InputVec: one frame per vector and unseeded peer), each
// multiplicative level reshares its reshared products in one batched
// degree-reduction round (one MulBatch) and keeps the others at the
// degree of their local products in their slots (one MulBatchUnreduced),
// at the cost of no traffic and — when it reshares none — no round, and
// the outputs open in one OpenBatch for the scalars and one OpenVec per
// vector. The engine counts every exchange it issues as one round, so
// Stats.Rounds advances by exactly Plan.Rounds(); the count is complete
// once the caller's next synchronizing call (Stats or an Open*) returns,
// since an input round that nothing follows is issued by that call.
// The unshared input leaves (see schedule) enter unshared, at the cost
// of no traffic and — when the plan shares no other leaf — no round,
// after the last multiplicative level with the linear gates over them.
//
// When the engine's recorder admits debug events, the execution is
// traced: one "circuit.exec" span for the whole run with a
// "circuit.input" child for the input round (when the plan shares an
// input), one "circuit.level" child per multiplicative level
// (reduced=false and no frames on a level that reshares nothing) and a
// "circuit.open" child for the openings, each carrying gate counts and
// the engine's frame/round/byte deltas: every round the plan spends is
// in exactly one child. Disabled telemetry skips all of it (the spans
// are inert and Stats is never read).
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
	// childDelta closes one child span with the engine's traffic deltas
	// since the previous close.
	childDelta := func(sp obs.TracedSpan) {
		if !sp.Active() {
			return
		}
		s := eng.Stats()
		d := s.Sub(prev)
		sp.End(obs.Int64("frames", d.Frames), obs.Int64("rounds", d.Rounds), obs.Int64("bytes", d.Bytes))
		prev = s
	}
	// Level 0: the shared inputs, which depend on nothing — every owner's
	// scalars as one vector, then the vector leaves, all one input round
	// that the engine's next command issues — then external bindings and
	// the linear closure.
	var in obs.TracedSpan
	if p.hasInputs {
		in = obs.StartTracedSpan(rec, "circuit.input", exec.ID(),
			obs.Int("inputs", len(p.inputs)), obs.Int("input_vecs", len(p.vecInputs)))
	}
	owned := p.enterScalars(eng, bind, p.inputs, eng.InputVec)
	for _, id := range p.vecInputs {
		n := &p.nodes[id]
		vs, err := p.inputLit(n, bind, r)
		if err != nil {
			return nil, err
		}
		r.vecs[id] = eng.InputVec(int(n.owner), vs)
	}
	p.takeApart(eng, r, p.inputs, owned)
	for _, id := range p.locals[0] {
		if err := p.evalLocal(eng, bind, r, id); err != nil {
			return nil, err
		}
	}
	childDelta(in)
	for lvl := 1; lvl <= p.depth; lvl++ {
		ml := &p.muls[lvl-1]
		sp := obs.StartTracedSpan(rec, "circuit.level", exec.ID(),
			obs.Int("level", lvl), obs.Int("gates", len(ml.reshare)+len(ml.keep)), obs.Bool("reduced", len(ml.reshare) > 0))
		if len(ml.reshare) > 0 {
			p.mulGates(r, ml.reshare, eng.MulBatch)
		}
		if len(ml.keep) > 0 {
			p.mulGates(r, ml.keep, eng.MulBatchUnreduced)
		}
		childDelta(sp)
		for _, id := range p.locals[lvl] {
			if err := p.evalLocal(eng, bind, r, id); err != nil {
				return nil, err
			}
		}
	}
	// What only the opening consumes: the unshared leaves — a scalar
	// owner's as one vector, taken apart with At — and the linear gates
	// over them.
	p.takeApart(eng, r, p.unshared, p.enterScalars(eng, bind, p.unshared, eng.InputUnshared))
	for _, id := range p.late {
		if err := p.evalLocal(eng, bind, r, id); err != nil {
			return nil, err
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
		childDelta(sp)
	}
	exec.End()
	return r, nil
}

// mulGates issues the multiplicative gates as one batch through mul and
// files the handles it returns.
func (p *Plan) mulGates(r *Result, gates []int32, mul func([]bgw.MulItem) []bgw.Val) {
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
		case kHadamard:
			items[i] = bgw.MulItem{Kind: bgw.MulHadamard, VA: r.vecs[n.a], VB: r.vecs[n.b]}
		case kDots:
			vecs, pairs := p.dots(n)
			items[i] = bgw.MulItem{Kind: bgw.MulDots, Vecs: gather(r.vecs, vecs), Pairs: pairs}
		}
	}
	for i, out := range mul(items) {
		if p.nodes[gates[i]].kind.isVec() {
			r.vecs[gates[i]] = out.(bgw.Vec)
		} else {
			r.vals[gates[i]] = out
		}
	}
}

// inputElem returns the field element a scalar input leaf shares.
func (p *Plan) inputElem(n *node, bind Bindings) field.Elem {
	switch n.kind {
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

// enterScalars enters the scalar input leaves ids through enter —
// InputVec or InputUnshared — as one vector per owner, in owner order,
// each holding the owner's leaves in id order and sized by a first
// counting pass, and returns the vectors by owner (nil where an owner
// has none) for takeApart. Shared, an owner's leaves are one dealing:
// one frame per unseeded peer whatever their number.
func (p *Plan) enterScalars(eng bgw.Evaluator, bind Bindings, ids []int32, enter func(int, []int64) bgw.Vec) []bgw.Vec {
	if len(ids) == 0 {
		return nil
	}
	count := make([]int, p.p)
	for _, id := range ids {
		count[p.nodes[id].owner]++
	}
	owned := make([]bgw.Vec, p.p)
	for owner, n := range count {
		if n == 0 {
			continue
		}
		own := make([]int64, 0, n)
		for _, id := range ids {
			if nd := &p.nodes[id]; int(nd.owner) == owner {
				own = append(own, field.ToInt64(p.inputElem(nd, bind)))
			}
		}
		owned[owner] = enter(owner, own)
	}
	return owned
}

// takeApart files each leaf of ids, in id order, as its element of the
// vector enterScalars entered for its owner.
func (p *Plan) takeApart(eng bgw.Evaluator, r *Result, ids []int32, owned []bgw.Vec) {
	if len(ids) == 0 {
		return
	}
	next := make([]int, p.p)
	for _, id := range ids {
		o := p.nodes[id].owner
		r.vals[id] = eng.At(owned[o], next[o])
		next[o]++
	}
}

// inputLit returns the vector an input leaf deals: its literal, the sum
// foldSums left for its dealer, or its binding — the first time the
// execution r needs one, it asks Bindings.InputVecs for all of them.
func (p *Plan) inputLit(n *node, bind Bindings, r *Result) ([]int64, error) {
	switch n.kind {
	case kInputVecSum:
		return p.lits[n.param], nil
	case kInputVec:
		return p.lits[n.a], nil
	}
	if r.vecArgs == nil {
		r.vecArgs = bind.InputVecs()
		if len(r.vecArgs) != p.nVecParams {
			return nil, fmt.Errorf("circuit: Bindings.InputVecs returned %d vectors, plan wants %d", len(r.vecArgs), p.nVecParams)
		}
	}
	if vs := r.vecArgs[n.param]; len(vs) == int(n.n) {
		return vs, nil
	}
	return nil, fmt.Errorf("circuit: input vector %d has %d elements, plan wants %d", n.param, len(r.vecArgs[n.param]), n.n)
}

// evalLocal materializes one unshared vector leaf, external binding or
// linear node on the engine (the shared input leaves enter in Execute's
// input round).
func (p *Plan) evalLocal(eng bgw.Evaluator, bind Bindings, r *Result, id int32) error {
	n := &p.nodes[id]
	switch n.kind {
	case kZero:
		r.vals[id] = eng.Zero()
	case kInputVec, kInputVecParam, kInputVecSum:
		vs, err := p.inputLit(n, bind, r)
		if err != nil {
			return err
		}
		r.vecs[id] = eng.InputUnshared(int(n.owner), vs)
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
	case kLinComb:
		r.opVecs = slices.Grow(r.opVecs[:0], int(n.b))
		for _, op := range p.operands(n.a, n.b) {
			r.opVecs = append(r.opVecs, r.vecs[op])
		}
		r.vecs[id] = eng.LinComb(r.opVecs, p.coefs(n), n.c)
	case kFromScalars:
		r.opVals = slices.Grow(r.opVals[:0], int(n.n))
		for _, op := range p.operands(n.a, n.n) {
			r.opVals = append(r.opVals, r.vals[op])
		}
		r.vecs[id] = eng.FromScalars(r.opVals)
	default:
		return fmt.Errorf("circuit: node %d kind %d is not local", id, n.kind)
	}
	return nil
}

// innerOperands gathers the two operand lists of a kInner gate.
func (p *Plan) innerOperands(r *Result, n *node) (as, bs []bgw.Val) {
	return gather(r.vals, p.operands(n.a, n.n)), gather(r.vals, p.operands(n.a+n.n, n.n))
}

// gather returns the handles of the nodes ids, in order.
func gather[H any](hs []H, ids []int32) []H {
	out := make([]H, len(ids))
	for i, id := range ids {
		out[i] = hs[id]
	}
	return out
}
