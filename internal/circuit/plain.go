package circuit

import (
	"fmt"

	"sqm/internal/field"
)

// Plain evaluates the plan directly over field elements — no sharing,
// no communication. Because BGW computes exactly, the opened values are
// bit-identical to every MPC execution of the same plan; this is the
// differential-testing oracle and the fast path for utility
// experiments. Plans with external bindings (ExtVal/ExtVec) cannot run
// plain: those handles are engine share state.
func (p *Plan) Plain(bind Bindings) (*Result, error) {
	if p.nExt > 0 || p.nExtVecs > 0 {
		return nil, fmt.Errorf("circuit: plan has %d external bindings; Plain needs a self-contained circuit", p.nExt+p.nExtVecs)
	}
	if err := p.validate(bind); err != nil {
		return nil, err
	}
	vals := make([]field.Elem, len(p.nodes))
	vecs := make([][]field.Elem, len(p.nodes))
	r := &Result{plan: p}
	for id := range p.nodes {
		n := &p.nodes[id]
		switch n.kind {
		case kZero, kFolded:
			vals[id] = 0
		case kInput, kInputParam, kInputSum:
			vals[id] = p.inputElem(n, bind)
		case kInputVec, kInputVecParam, kInputVecSum:
			vs, err := p.inputLit(n, bind, r)
			if err != nil {
				return nil, err
			}
			vecs[id] = embed(vs)
		case kAdd:
			vals[id] = field.Add(vals[n.a], vals[n.b])
		case kSub:
			vals[id] = field.Sub(vals[n.a], vals[n.b])
		case kAddConst:
			vals[id] = field.Add(vals[n.a], field.FromInt64(n.c))
		case kMulConst:
			vals[id] = field.Mul(vals[n.a], field.FromInt64(n.c))
		case kAddConstP:
			vals[id] = field.Add(vals[n.a], field.FromInt64(bind.Consts[n.param]))
		case kMulConstP:
			vals[id] = field.Mul(vals[n.a], field.FromInt64(bind.Consts[n.param]))
		case kMul:
			vals[id] = field.Mul(vals[n.a], vals[n.b])
		case kInner:
			as, bs := p.operands(n.a, n.n), p.operands(n.a+n.n, n.n)
			var acc field.Elem
			for i := range as {
				acc = field.Add(acc, field.Mul(vals[as[i]], vals[bs[i]]))
			}
			vals[id] = acc
		case kDot:
			va, vb := vecs[n.a], vecs[n.b]
			var acc field.Elem
			for k := range va {
				acc = field.Add(acc, field.Mul(va[k], vb[k]))
			}
			vals[id] = acc
		case kHadamard:
			out := make([]field.Elem, n.n)
			field.MulVec(out, vecs[n.a], vecs[n.b])
			vecs[id] = out
		case kDots:
			out := make([]field.Elem, 0, n.n)
			p.eachPair(n, func(a, b int32) {
				var acc field.Elem
				for k, x := range vecs[a] {
					acc = field.Add(acc, field.Mul(x, vecs[b][k]))
				}
				out = append(out, acc)
			})
			vecs[id] = out
		case kAt:
			vals[id] = vecs[n.a][n.b]
		case kAddVec:
			va, vb := vecs[n.a], vecs[n.b]
			out := make([]field.Elem, len(va))
			for k := range out {
				out[k] = field.Add(va[k], vb[k])
			}
			vecs[id] = out
		case kLinComb:
			out := make([]field.Elem, n.n)
			c0 := field.FromInt64(n.c)
			for k := range out {
				out[k] = c0
			}
			cs := p.coefs(n)
			for k, op := range p.operands(n.a, n.b) {
				if cs == nil {
					field.AddVec(out, out, vecs[op])
					continue
				}
				ck := field.FromInt64(cs[k])
				for e, x := range vecs[op] {
					out[e] = field.Add(out[e], field.Mul(ck, x))
				}
			}
			vecs[id] = out
		case kFromScalars:
			out := make([]field.Elem, n.n)
			for k, op := range p.operands(n.a, n.n) {
				out[k] = vals[op]
			}
			vecs[id] = out
		case kOpen:
			r.opened = append(r.opened, field.ToInt64(vals[n.a]))
		case kOpenVec:
			src := vecs[n.a]
			out := make([]int64, len(src))
			for k, v := range src {
				out[k] = field.ToInt64(v)
			}
			r.openedVecs = append(r.openedVecs, out)
		default:
			return nil, fmt.Errorf("circuit: unknown node kind %d", n.kind)
		}
	}
	return r, nil
}

// embed maps a literal vector into the field.
func embed(xs []int64) []field.Elem {
	out := make([]field.Elem, len(xs))
	for k, x := range xs {
		out[k] = field.FromInt64(x)
	}
	return out
}
