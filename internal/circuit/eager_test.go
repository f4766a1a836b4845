package circuit

import (
	"slices"

	"sqm/internal/bgw"
	"sqm/internal/field"
)

// runEager is the reference Plan.Execute is held to: the plan's own
// schedule driven through the engine's singleton gates, the way protocols
// drove an engine before plans existed — one Input per scalar input
// and one InputVec per vector, all up front, one Mul / InnerProduct / Dot
// — or a MulBatch of one Hadamard — per multiplicative gate, one Open
// per scalar output and one OpenVec per vector output, each an exchange
// the engine counts as a round of its own.
// BGW computes exactly, so it must open what Execute opens, bit for bit,
// in EagerRounds rounds. It reduces after every gate, whatever degree
// the plan leaves it at, and it shares every input leaf — it finds them
// in the nodes, not in the plan's lists of the shared ones — so it is the
// oracle for the products Execute keeps unreduced and for the unshared
// leaves.
func (p *Plan) runEager(eng bgw.Evaluator, bind Bindings) (*Result, error) {
	if err := p.validate(bind); err != nil {
		return nil, err
	}
	r := &Result{plan: p, vals: make([]bgw.Val, len(p.nodes)), vecs: make([]bgw.Vec, len(p.nodes))}
	for id := range p.nodes {
		switch n := &p.nodes[id]; {
		case n.kind.isScalarInput():
			r.vals[id] = eng.Input(int(n.owner), field.ToInt64(p.inputElem(n, bind)))
		case n.kind.isInput():
			vs, err := p.inputLit(n, bind, r)
			if err != nil {
				return nil, err
			}
			r.vecs[id] = eng.InputVec(int(n.owner), vs)
		}
	}
	for lvl, locals := range p.locals {
		if lvl > 0 {
			ml := p.muls[lvl-1]
			for _, id := range append(append([]int32(nil), ml.reshare...), ml.keep...) {
				switch n := &p.nodes[id]; n.kind {
				case kMul:
					r.vals[id] = eng.Mul(r.vals[n.a], r.vals[n.b])
				case kInner:
					as, bs := p.innerOperands(r, n)
					r.vals[id] = eng.InnerProduct(as, bs)
				case kDot:
					r.vals[id] = eng.Dot(r.vecs[n.a], r.vecs[n.b])
				case kHadamard:
					r.vecs[id] = eng.MulBatch([]bgw.MulItem{{Kind: bgw.MulHadamard, VA: r.vecs[n.a], VB: r.vecs[n.b]}})[0].(bgw.Vec)
				case kDots:
					// The dots as recorded: one Dot each, then the packing.
					var dots []bgw.Val
					p.eachPair(n, func(a, b int32) { dots = append(dots, eng.Dot(r.vecs[a], r.vecs[b])) })
					r.vecs[id] = eng.FromScalars(dots)
				}
			}
		}
		for _, id := range locals {
			if err := p.evalLocal(eng, bind, r, id); err != nil {
				return nil, err
			}
		}
	}
	for _, id := range p.late {
		if !p.nodes[id].kind.isInput() {
			if err := p.evalLocal(eng, bind, r, id); err != nil {
				return nil, err
			}
		}
	}
	if p.hasOpens() {
		r.opened = make([]int64, len(p.opens))
		for i, id := range p.opens {
			r.opened[i] = eng.Open(r.vals[p.nodes[id].a])
		}
		r.openedVecs = make([][]int64, len(p.openVecs))
		for i, id := range p.openVecs {
			r.openedVecs[i] = eng.OpenVec(r.vecs[p.nodes[id].a])
		}
	}
	return r, nil
}

// MulGates returns the number of multiplicative gates as recorded — a
// kDots is its dots — each of which runEager pays one round for.
func (p *Plan) MulGates() int {
	n := 0
	for _, ml := range p.muls {
		for _, id := range append(slices.Clip(ml.reshare), ml.keep...) {
			if nd := &p.nodes[id]; nd.kind == kDots {
				n += int(nd.n)
			} else {
				n++
			}
		}
	}
	return n
}

// EagerRounds returns the wire rounds of runEager, the gate-by-gate
// baseline the scheduler improves on, by what it issues: every
// Input is an input round of its own (its InputVec joins the vectors
// dealt before it, and its At issues them all), the vector leaves after
// the last scalar one are one more, and every multiplicative gate, Open
// and OpenVec is one exchange.
func (p *Plan) EagerRounds() int {
	r := p.MulGates() + len(p.opens) + len(p.openVecs)
	pending := false // a vector leaf dealt since the last scalar one
	for id := range p.nodes {
		switch n := &p.nodes[id]; {
		case n.kind.isScalarInput():
			r++
			pending = false
		case n.kind.isInput():
			pending = true
		}
	}
	if pending {
		r++
	}
	return r
}
