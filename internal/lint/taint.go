package lint

import (
	"go/types"
	"sort"
	"strings"
)

// TaintSpec parameterizes one propagation run over the module graph.
// The graph itself is kind-agnostic; each analyzer supplies its own
// sources and sanitizers and interprets sinks over the result.
type TaintSpec struct {
	// FuncSources taints the results of calls to these functions,
	// keyed by FuncKey ("pkg.Fn" or "(pkg.Type).Method").
	FuncSources map[string]bool
	// Sanitizers are declassification points: their results are clean
	// by fiat, taint never flows out of them, and taint never enters
	// their bodies. Keyed by FuncKey. Calls through interfaces match on
	// the interface method's key.
	Sanitizers map[string]bool
}

// TaintResult is the fixed point of one propagation: every reachable
// node with the edge that first tainted it, so witness paths can be
// reconstructed without re-running the analysis.
type TaintResult struct {
	m      *Module
	parent map[*node]tEdge // zero-edge (to==nil) for seeds
	seed   map[*node]string
	spec   TaintSpec
}

// Propagate runs taint from the spec's sources to a fixed point over
// the assignment graph, context-sensitively at calls into analyzed
// functions:
//
//  1. per-function summaries (which inputs flow to which results and
//     mutated inputs) are computed to a fixed point, so flow *through*
//     a callee only surfaces at call sites whose own arguments are
//     tainted;
//  2. a generative phase propagates source seeds without
//     entering callees through argument edges; a result node tainted
//     here is tainted independent of any caller, so it fans out to
//     every call site of its function;
//  3. a final phase re-runs with argument->parameter entry edges
//     enabled, so sinks inside a callee fire when a caller passes
//     taint in — without fanning the callee's results back out to
//     unrelated callers.
//
// The worklists are seeded and drained in node creation order, so
// parents — and therefore witness paths — are deterministic.
func (m *Module) Propagate(spec TaintSpec) *TaintResult {
	blocked := func(n *node) bool {
		owner := m.resultOwner[n]
		return owner != nil && spec.Sanitizers[FuncKey(owner)]
	}
	sums := m.summarize(spec, blocked)
	res := &TaintResult{
		m:      m,
		parent: make(map[*node]tEdge),
		seed:   make(map[*node]string),
		spec:   spec,
	}

	var queue []*node
	visit := func(n *node, e tEdge) {
		if n == nil {
			return
		}
		if _, seen := res.parent[n]; seen {
			return
		}
		if blocked(n) {
			return
		}
		res.parent[n] = e
		queue = append(queue, n)
	}
	step := func(n *node, allowEntry, fanout bool) {
		for _, e := range n.out {
			if e.entry && !allowEntry {
				continue
			}
			if e.via != nil && spec.Sanitizers[FuncKey(e.via)] {
				continue
			}
			visit(e.to, tEdge{to: n, via: e.via, pos: e.pos})
		}
		// Summary application: flow through an analyzed callee surfaces
		// at this site's result (or mutated-argument) nodes.
		for _, si := range m.siteIn[n] {
			if spec.Sanitizers[FuncKey(si.site.callee)] {
				continue
			}
			outs := sums[si.site.callee]
			if si.idx >= len(outs) {
				continue
			}
			var idxs []int
			for j := range outs[si.idx] {
				idxs = append(idxs, j)
			}
			sort.Ints(idxs)
			for _, j := range idxs {
				pe := tEdge{to: n, via: si.site.callee, pos: si.site.call.Pos()}
				if j < len(si.site.results) {
					visit(si.site.results[j], pe)
				} else if mi := j - len(si.site.results); mi < len(si.site.inputs) {
					for _, t := range si.site.inputs[mi] {
						visit(t, pe)
					}
				}
			}
		}
		if fanout {
			for _, t := range m.resultFan[n] {
				visit(t, tEdge{to: n, via: m.resultOwner[t], pos: t.pos})
			}
		}
	}

	// Seeds, in node creation order.
	for _, n := range m.nodeList {
		if blocked(n) {
			continue
		}
		owner := m.resultOwner[n]
		if owner == nil || !spec.FuncSources[FuncKey(owner)] {
			continue
		}
		res.seed[n] = "source " + shortFuncName(owner)
		res.parent[n] = tEdge{}
		queue = append(queue, n)
	}
	// Phase 2: generative propagation (no entry edges, results fan out).
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		step(n, false, true)
	}
	// Phase 3: entry edges enabled, no fanout. Re-scan the tainted
	// frontier in deterministic order; already-visited targets are
	// skipped, so only flows reachable through entry edges expand.
	for _, n := range m.nodeList {
		if _, ok := res.parent[n]; ok {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		step(n, true, false)
	}
	return res
}

// summarize computes, per analyzed function, which inputs (receiver
// first, then parameters) flow to which outputs: result j maps to
// output index j, a mutated input i to index len(results)+i. The fixed
// point iterates because a summary can depend on callee summaries
// (including recursively).
func (m *Module) summarize(spec TaintSpec, blocked func(*node) bool) map[*types.Func][]map[int]bool {
	sums := make(map[*types.Func][]map[int]bool)
	var fns []*FuncInfo
	for _, fi := range m.funcList {
		if fi.Decl == nil || fi.Decl.Body == nil {
			continue
		}
		ins := m.inputNodes(fi.Fn)
		s := make([]map[int]bool, len(ins))
		for i := range s {
			s[i] = make(map[int]bool)
		}
		sums[fi.Fn] = s
		fns = append(fns, fi)
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if spec.Sanitizers[FuncKey(fi.Fn)] {
				continue // results are blocked; no summary needed
			}
			sig := fi.Fn.Type().(*types.Signature)
			ins := m.inputNodes(fi.Fn)
			outIdx := make(map[*node]int)
			for j, rn := range m.resultsOf(sig) {
				if rn != nil {
					outIdx[rn] = j
				}
			}
			nr := sig.Results().Len()
			for i, pn := range ins {
				if pn == nil {
					continue
				}
				if _, ok := outIdx[pn]; !ok {
					outIdx[pn] = nr + i
				}
			}
			for i, pn := range ins {
				if pn == nil {
					continue
				}
				reach := m.reachFrom(pn, spec, blocked, sums)
				for o, j := range outIdx {
					if o == pn || !reach[o] || sums[fi.Fn][i][j] {
						continue
					}
					sums[fi.Fn][i][j] = true
					changed = true
				}
			}
		}
	}
	return sums
}

// reachFrom is the summary-time reachability query: plain edges plus
// callee-summary jumps, never argument->parameter entry edges (the
// callee's summary already accounts for flow through it) and never
// result fan-out.
func (m *Module) reachFrom(start *node, spec TaintSpec, blocked func(*node) bool, sums map[*types.Func][]map[int]bool) map[*node]bool {
	seen := map[*node]bool{start: true}
	queue := []*node{start}
	push := func(t *node) {
		if t != nil && !seen[t] && !blocked(t) {
			seen[t] = true
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.out {
			if e.entry {
				continue
			}
			if e.via != nil && spec.Sanitizers[FuncKey(e.via)] {
				continue
			}
			push(e.to)
		}
		for _, si := range m.siteIn[n] {
			if spec.Sanitizers[FuncKey(si.site.callee)] {
				continue
			}
			outs := sums[si.site.callee]
			if si.idx >= len(outs) {
				continue
			}
			for j := range outs[si.idx] {
				if j < len(si.site.results) {
					push(si.site.results[j])
				} else if mi := j - len(si.site.results); mi < len(si.site.inputs) {
					for _, t := range si.site.inputs[mi] {
						push(t)
					}
				}
			}
		}
	}
	return seen
}

// Tainted reports whether n was reached.
func (r *TaintResult) Tainted(n *node) bool {
	_, ok := r.parent[n]
	return ok
}

// pathTo returns the node chain from a seed to n (inclusive).
func (r *TaintResult) pathTo(n *node) []*node {
	var rev []*node
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		e, ok := r.parent[cur]
		if !ok || e.to == nil {
			break
		}
		cur = e.to
		if len(rev) > 64 { // cycle guard; parents form a tree, but stay safe
			break
		}
	}
	path := make([]*node, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path
}

// Witness renders the call-path witness into n:
//
//	source (randx.RNG).Skellam (draw.go:9) → result 0 of draw (draw.go:9) → var v (run.go:70)
//
// Hops that stay inside one function are collapsed; every call-boundary
// crossing is kept so the interprocedural route is visible.
func (r *TaintResult) Witness(n *node) string {
	path := r.pathTo(n)
	if len(path) == 0 {
		return ""
	}
	var b strings.Builder
	seedWhy := r.seed[path[0]]
	b.WriteString(seedWhy)
	if path[0].pos.IsValid() {
		b.WriteString(" (" + r.m.PosString(path[0].pos) + ")")
	}
	hops := 0
	for i := 1; i < len(path); i++ {
		e := r.parent[path[i]]
		// Keep call-boundary hops and the final node; collapse plain
		// intra-function assignments to keep witnesses readable.
		if e.via == nil && i != len(path)-1 {
			continue
		}
		hops++
		if hops > 8 {
			b.WriteString(" → …")
			break
		}
		b.WriteString(" → " + path[i].desc)
		if e.pos.IsValid() {
			b.WriteString(" (" + r.m.PosString(e.pos) + ")")
		}
	}
	return b.String()
}
