package circuit

import (
	"slices"

	"sqm/internal/field"
	"sqm/internal/invariant"
)

// Consumer states of the fold pass's one scratch array: a node id means
// "consumed exactly once, by that kAdd/kAddVec gate".
const (
	useNone  int32 = -1 // no consumer
	useOther int32 = -2 // exactly one consumer, not an addition
	useMany  int32 = -3 // two or more consumers
)

// folder is the scratch of one foldSums run. Every slice is reused from
// tree to tree, so the pass allocates a handful of times per plan and
// never per node.
type folder struct {
	p     *Plan
	limit int
	// use[id] is the node's consumer state. For nodes the pass removes it
	// is reused as the forwarding address: the surviving node that stands
	// in for the removed one, or useNone when nothing does.
	use    []int32
	stack  []int32      // depth-first work list
	inner  []int32      // the tree's addition gates, root first, parents before children
	leaves []int32      // the tree's foldable input leaves
	count  []int32      // foldable leaves per owner
	acc    []field.Elem // running sum of one group's literal vectors
}

// foldSums is Compile's first pass: a dealer shares the sum of what it
// deals, and a sum of vectors takes one slot. It finds every maximal sum
// tree — kAdd (or kAddVec) gates whose interior gates have exactly one
// consumer — groups the tree's input leaves that have exactly one
// consumer by owner, and replaces each group of two or more by one
// kInputSum / kInputVecSum leaf sharing the group's sum: literals summed
// here, scalar parameters at execution, always in field arithmetic.
// Additions left with one operand forward it, kZero operands of a
// rewritten tree drop out as the identity, and removed nodes become
// kFolded. Then a vector tree still of two gates or more becomes one
// kLinComb over its leaves without coefficients (sum): the plain sum,
// unmetered as kAddVec is, for which every party fills one output slot
// instead of one per gate. The root keeps its id and its value, so
// consumers never move.
//
// The opened outputs are unchanged (Shamir sharing is linear: the sum of
// the sharings and a sharing of the sum reconstruct to the same element,
// and field addition is associative), and so is every counter. Leaves
// with no consumer (handles read back through Result.VecOf) or with
// several are never touched. A scalar tree in which every owner deals at
// most one leaf — any circuit recorded for one client per party — is
// left exactly as recorded, and so is a vector tree of one gate.
//
// Cost: one walk over the nodes for the use counts and one visit per
// addition gate (two per vector one), over flat scratch.
func (p *Plan) foldSums(limit int) error {
	f := folder{p: p, limit: limit, use: make([]int32, len(p.nodes)), count: make([]int32, p.p)}
	for i := range f.use {
		f.use[i] = useNone
	}
	var id int32
	byAdd, adds := false, 0
	consume := func(op int32) { f.consume(id, op, byAdd) }
	for i := range p.nodes {
		n := &p.nodes[i]
		id, byAdd = int32(i), n.kind == kAdd || n.kind == kAddVec
		if byAdd {
			adds++
		}
		p.eachOperand(n, consume)
	}
	if adds == 0 {
		return nil
	}
	// A tree of g gates has g + 1 operands that are not its gates, and
	// neither walk holds more than that: one array for the three lists.
	buf := make([]int32, 3*adds+2)
	f.inner, f.leaves, f.stack = buf[:0:adds], buf[adds:adds:2*adds+1], buf[2*adds+1:2*adds+1]
	for id := range p.nodes {
		if k := p.nodes[id].kind; (k == kAdd || k == kAddVec) && f.use[id] < 0 {
			if err := f.tree(int32(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// consume notes that gate id reads op.
func (f *folder) consume(id, op int32, byAdd bool) {
	if op < 0 || op >= id {
		// Record order is topological; a forward reference is a
		// corrupted handle.
		panic(invariant.Violation("circuit: node %d references %d out of order", id, op))
	}
	switch {
	case f.use[op] != useNone:
		f.use[op] = useMany
	case byAdd:
		f.use[op] = id
	default:
		f.use[op] = useOther
	}
}

// tree folds the sum tree rooted at the addition gate root.
func (f *folder) tree(root int32) error {
	nodes := f.p.nodes
	kind := nodes[root].kind
	f.inner, f.leaves = f.inner[:0], f.leaves[:0]
	f.stack = append(f.stack[:0], root)
	fold := false
	for len(f.stack) > 0 {
		x := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		f.inner = append(f.inner, x)
		for _, c := range [2]int32{nodes[x].a, nodes[x].b} {
			// A one-consumer operand of an addition is consumed by it.
			switch n := &nodes[c]; {
			case f.use[c] < 0:
			case n.kind == kind:
				f.stack = append(f.stack, c)
			case n.kind.folds():
				f.leaves = append(f.leaves, c)
				f.count[n.owner]++
				fold = fold || f.count[n.owner] > 1
			}
		}
	}
	if fold {
		for owner, k := range f.count {
			if k > 1 {
				if err := f.group(int32(owner)); err != nil {
					return err
				}
			}
		}
		f.prune(root)
	}
	if len(f.leaves) > 0 {
		clear(f.count)
	}
	if kind == kAddVec && nodes[root].kind == kAddVec {
		return f.sum(root)
	}
	return nil
}

// sum rewrites what is left of a vector sum tree — the kAddVec gates from
// root down through gates of one consumer — into one kLinComb over the
// tree's leaves, left to right, with unit coefficients (no coefficient
// list: param −1). Each kAddVec fills an output slot per party, so a
// chain over k leaves held k − 1 copies of its output; the kLinComb holds
// one. The interior gates become kFolded; a tree of one gate is left as
// it is.
func (f *folder) sum(root int32) error {
	p := f.p
	nodes := p.nodes
	f.inner, f.leaves = f.inner[:0], f.leaves[:0]
	f.stack = append(f.stack[:0], root)
	for len(f.stack) > 0 {
		x := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		if n := &nodes[x]; x == root || n.kind == kAddVec && f.use[x] >= 0 {
			f.inner = append(f.inner, x)
			f.stack = append(f.stack, n.b, n.a)
			continue
		}
		f.leaves = append(f.leaves, x)
	}
	if len(f.inner) < 2 {
		return nil
	}
	off := len(p.args)
	p.args = append(p.args, f.leaves...)
	if len(p.args) > f.limit {
		return errIDSpace(f.limit)
	}
	for _, x := range f.inner[1:] {
		nodes[x] = node{kind: kFolded, folded: true}
	}
	nodes[root] = node{kind: kLinComb, a: int32(off), b: int32(len(f.leaves)), param: -1, n: nodes[root].n}
	return nil
}

// group replaces the current tree's foldable leaves dealt by owner with
// one sum leaf, in the slot of the first; the others are removed.
func (f *folder) group(owner int32) error {
	p := f.p
	sum := node{owner: owner, a: int32(len(p.args)), param: -1, folded: true}
	keep := int32(-1)
	var lit field.Elem
	var vec []field.Elem // f.acc, once the group has two literal vectors
	for _, l := range f.leaves {
		n := &p.nodes[l]
		if n.owner != owner {
			continue
		}
		switch n.kind {
		case kInput:
			lit = field.Add(lit, field.FromInt64(n.c))
		case kInputParam:
			p.args = append(p.args, n.param)
		case kInputVec:
			if sum.param < 0 {
				sum.param = n.a
				break
			}
			if vec == nil {
				f.acc = f.acc[:0]
				for _, v := range p.lits[sum.param] {
					f.acc = append(f.acc, field.FromInt64(v))
				}
				vec = f.acc
			}
			for k, v := range p.lits[n.a] {
				vec[k] = field.Add(vec[k], field.FromInt64(v))
			}
			p.lits[n.a] = nil
		}
		if keep < 0 {
			keep = l
			sum.kind, sum.n = kInputSum, n.n
			if n.kind.isVec() {
				sum.kind = kInputVecSum
			}
			continue
		}
		*n = node{kind: kFolded, folded: true}
		f.use[l] = useNone
		p.folded++
	}
	if vec != nil {
		// The first literal is its caller's (Builder.InputVec): the sum
		// goes to an array of its own.
		lit := make([]int64, len(vec))
		for k, e := range vec {
			lit[k] = field.ToInt64(e)
		}
		p.lits[sum.param] = lit
	}
	if len(p.args) > f.limit {
		return errIDSpace(f.limit)
	}
	sum.b = int32(len(p.args)) - sum.a
	sum.c = int64(lit)
	p.nodes[keep] = sum
	return nil
}

// prune rewires the current tree around the leaves group removed, from
// the deepest addition up: a gate with two surviving operands reads them,
// a gate with one forwards it, a gate with none is removed. The root
// cannot forward — its consumers hold its id — so it takes over the node
// that would stand in for it, always one of the tree's own one-consumer
// nodes: an interior gate, or the sum leaf when that is all that is left.
func (f *folder) prune(root int32) {
	nodes := f.p.nodes
	for i := len(f.inner) - 1; i >= 0; i-- {
		x := f.inner[i]
		n := &nodes[x]
		a, b := f.survivor(n.a), f.survivor(n.b)
		switch {
		case a >= 0 && b >= 0:
			// A partial sum over a changed leaf set is not the value recorded.
			n.folded = x != root && (a != n.a || b != n.b || nodes[a].folded || nodes[b].folded)
			n.a, n.b = a, b
		case x == root:
			if a < 0 {
				a = b
			}
			*n = nodes[a]
			n.folded = false
			nodes[a] = node{kind: kFolded, folded: true}
		default:
			if a < 0 {
				a = b
			}
			*n = node{kind: kFolded, folded: true}
			f.use[x] = a
		}
	}
}

// survivor resolves an operand of a rewritten tree: removed nodes answer
// with their forwarding address, a kZero is the identity and drops out
// (removed with its only consumer), anything else stands for itself.
func (f *folder) survivor(c int32) int32 {
	switch n := &f.p.nodes[c]; n.kind {
	case kFolded:
		return f.use[c]
	case kZero:
		if f.use[c] >= 0 {
			*n = node{kind: kFolded, folded: true}
			f.use[c] = useNone
		}
		return useNone
	}
	return c
}

// foldDots is Compile's second fold, which runs on the levels and the
// consumer counts uses of level: a Gram level is one product. A
// kFromScalars whose every operand is a kDot of one multiplicative level
// that it alone consumes — a covariance's DotBatch packed for its
// opening, an LR step's gradient dots — becomes one vector-valued
// multiplicative node, kDots, in its own slot and at its own level (the
// dots'), so its consumers do not move. Its distinct operand vectors, in
// first-use order, and the index pairs of its dots into them go to args
// once, here, and the dots become kFolded. Execute issues the node as one
// bgw.MulDots item: the engine resolves a handle per vector instead of
// one per dot, and every party computes the dots straight into the
// level's row, whose part a vector slot then views, instead of filing a
// scalar slot per dot and copying them into a vector.
//
// The opened outputs, the frames and every counter are unchanged: the
// elements are the dots', in the same order, the level's row is as wide
// as before, and FieldOps counts every dot as a MulDot. Left as recorded:
// a FromScalars that packs anything but such dots — polysum's
// accumulators of dots — and every dot with a second consumer.
//
// Cost: two visits per dot of a packing that folds, over one scratch
// array made for the first.
func (p *Plan) foldDots(uses []uint8, limit int) error {
	var pos []int32 // 1 + a vector's index in the current packing's list; 0: not listed
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.kind != kFromScalars || !p.packsDotsOnly(n, uses) {
			continue
		}
		if pos == nil {
			pos = make([]int32, len(p.nodes))
		}
		ops := p.operands(n.a, n.n)
		vecs := int32(0)
		for _, d := range ops {
			for _, v := range [2]int32{p.nodes[d].a, p.nodes[d].b} {
				if pos[v] == 0 {
					vecs++
					pos[v] = vecs
				}
			}
		}
		// The vectors, each at its index, then the pairs: one growth.
		off := len(p.args)
		p.args = slices.Grow(p.args, int(vecs)+2*len(ops))[:off+int(vecs)]
		for _, d := range ops {
			dot := &p.nodes[d]
			p.args[off+int(pos[dot.a])-1], p.args[off+int(pos[dot.b])-1] = dot.a, dot.b
			p.args = append(p.args, pos[dot.a]-1, pos[dot.b]-1)
			*dot = node{kind: kFolded, folded: true}
		}
		if len(p.args) > limit {
			return errIDSpace(limit)
		}
		for _, v := range p.args[off : off+int(vecs)] {
			pos[v] = 0
		}
		*n = node{kind: kDots, a: int32(off), b: vecs, n: n.n, level: n.level}
	}
	return nil
}

// packsDotsOnly reports whether every operand of the kFromScalars n is a
// kDot of one level that n alone consumes.
func (p *Plan) packsDotsOnly(n *node, uses []uint8) bool {
	ops := p.operands(n.a, n.n)
	if len(ops) == 0 {
		return false
	}
	lvl := p.nodes[ops[0]].level
	for _, d := range ops {
		if dot := &p.nodes[d]; dot.kind != kDot || uses[d] != 1 || dot.level != lvl {
			return false
		}
	}
	return true
}
