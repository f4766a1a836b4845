package circuit

import "sqm/internal/bgw"

// runEager is the reference Plan.Execute is held to: the plan's own
// schedule driven through the engine's singleton gates, the way protocols
// drove an engine before plans existed — one InputElem per scalar input,
// one Mul / InnerProduct / Dot and one wire round per multiplicative
// gate, one Open per scalar output. BGW computes exactly, so it must open
// what Execute opens, bit for bit, in EagerRounds rounds. It reduces
// after every gate, the last level's too, and it shares every input leaf
// — it finds them in the nodes, not in the plan's list of the shared ones
// — so it is the oracle for the terminal level Execute leaves unreduced
// and for the open-only leaves Execute does not share.
func (p *Plan) runEager(eng bgw.Evaluator, bind Bindings) (*Result, error) {
	if err := p.validate(bind); err != nil {
		return nil, err
	}
	r := &Result{plan: p, vals: make([]bgw.Val, len(p.nodes)), vecs: make([]bgw.Vec, len(p.nodes))}
	for id := range p.nodes {
		if n := &p.nodes[id]; n.kind.isScalarInput() {
			r.vals[id] = eng.InputElem(int(n.owner), p.inputElem(n, bind))
		}
	}
	for lvl, locals := range p.locals {
		if lvl > 0 {
			for _, id := range p.muls[lvl-1] {
				switch n := &p.nodes[id]; n.kind {
				case kMul:
					r.vals[id] = eng.Mul(r.vals[n.a], r.vals[n.b])
				case kInner:
					as, bs := p.innerOperands(r, n)
					r.vals[id] = eng.InnerProduct(as, bs)
				case kDot:
					r.vals[id] = eng.Dot(r.vecs[n.a], r.vecs[n.b])
				}
				eng.AdvanceRound()
			}
		}
		for _, id := range locals {
			if n := &p.nodes[id]; n.kind == kInputVec || n.kind == kInputVecSum {
				r.vecs[id] = eng.InputVec(int(n.owner), p.inputLit(n))
			} else if err := p.evalLocal(eng, bind, r, id); err != nil {
				return nil, err
			}
		}
		if lvl == 0 && p.anyInput() {
			eng.AdvanceRound()
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
		eng.AdvanceRound()
	}
	return r, nil
}

// MulGates returns the number of multiplicative gates: each costs one
// degree-reduction resharing, and runEager pays one round for each.
func (p *Plan) MulGates() int {
	n := 0
	for _, lvl := range p.muls {
		n += len(lvl)
	}
	return n
}

// anyInput reports whether the plan has an input leaf, shared or not:
// runEager shares them all and pays the input round for any.
func (p *Plan) anyInput() bool { return p.hasInputs || p.nUnshared > 0 }

// EagerRounds returns the wire rounds of runEager, the gate-by-gate
// baseline the scheduler improves on: the input round, one per
// multiplicative gate, the opening round.
func (p *Plan) EagerRounds() int {
	r := p.MulGates()
	if p.anyInput() {
		r++
	}
	if p.hasOpens() {
		r++
	}
	return r
}
