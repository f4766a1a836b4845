package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// This file is the interprocedural half of the framework: a whole-module
// view of every loaded package, with a call graph and a flow-insensitive
// assignment graph over variables, parameters, results, and struct
// fields. The dpbudget analyzer runs over this graph instead of a single
// package's AST, so a noise draw that passes through two helper
// functions before hitting fmt.Sprintf is still caught, with the full
// call path reported in the diagnostic.
//
// The design balances soundness against the precision a lint gate needs
// to stay quiet on clean code:
//
//   - every variable, parameter, receiver, and result is one node,
//     identified by its types.Object (results of unnamed tuples reuse
//     the anonymous vars the type-checker allocates); struct fields get
//     one node per field *object* (field-based, not per-instance), so
//     reading w.Round off a wrapper that also holds noise does not
//     inherit the wrapper's taint unless something tainted was stored
//     into Round;
//   - assignments, returns, range clauses, channel sends, and composite
//     expressions add edges between the "leaves" of the right-hand side
//     and the written object (writes through an index or star taint the
//     container object; writes through a selector taint the field node
//     and dirty the root);
//   - calls to functions declared in the analyzed set are
//     context-sensitive: each call site gets its own result nodes, and
//     taint crosses the call through a per-function summary
//     (input -> output flow bits, computed to a fixed point in
//     taint.go) instead of through shared result objects, so one
//     tainted call site cannot poison every other caller of the same
//     function. Argument->parameter "entry" edges are kept so sinks
//     inside a callee still fire when a caller passes taint in;
//   - calls to anything else (stdlib, interfaces, dynamic) flow through
//     a per-call-site passthrough node so taint survives fmt.Sprintf,
//     append, and friends;
//   - function literals are analyzed in place: their parameters and
//     results are wired up when the literal is invoked directly, and
//     captured variables flow for free because the objects are shared.
//
// Known approximations: no per-instance heap model (two instances of
// the same struct type share field nodes), and whole-struct copies do
// not transfer field-node taint (the root-object edge still flows).

// Module is the whole-program view handed to RunModule analyzers.
type Module struct {
	// Fset positions every file of the load.
	Fset *token.FileSet
	// Pkgs are the packages under analysis, sorted by import path.
	Pkgs []*Package
	// Funcs indexes every function declared in Pkgs.
	Funcs map[*types.Func]*FuncInfo
	// Calls lists every static call site in deterministic order.
	Calls []*CallSite
	// Returns lists the return statements of exported functions, the
	// egress sites of the dpbudget exported-return rule.
	Returns []*ReturnSite

	funcList    []*FuncInfo
	nodes       map[types.Object]*node
	fieldNds    map[*types.Var]*node
	extNodes    map[*ast.CallExpr]*node
	nodeList    []*node
	resultOwner map[*node]*types.Func // result/passthrough node -> producing func
	litResults  map[*ast.FuncLit][]*node
	litParams   map[*ast.FuncLit][]*node
	sites       map[*ast.CallExpr]*sumSite
	siteList    []*sumSite
	siteIn      map[*node][]siteInput
	resultFan   map[*node][]*node // declared result node -> per-site result nodes
}

// FuncInfo is one declared function of the module.
type FuncInfo struct {
	// Fn is the function object (the generic object for generic
	// functions; instantiations resolve back to it).
	Fn *types.Func
	// Decl is the declaration, nil only for functions without bodies.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
}

// CallSite is one static call expression.
type CallSite struct {
	// Fn is the nearest enclosing declared function (nil in package-level
	// variable initializers).
	Fn *types.Func
	// Pkg is the package containing the call.
	Pkg *Package
	// Call is the call expression.
	Call *ast.CallExpr
	// Callee is the statically resolved callee, nil for dynamic calls
	// (function values, direct literal invocations).
	Callee *types.Func
}

// ReturnSite is one result expression of an exported function.
type ReturnSite struct {
	Fn   *types.Func
	Pkg  *Package
	Expr ast.Expr
}

// sumSite is one call to a function declared in the analyzed set: the
// unit of context-sensitive summary application. Inputs are indexed
// receiver-first, then parameters (variadic arguments collapse onto the
// final parameter); results are fresh per-site nodes.
type sumSite struct {
	caller  *types.Func
	pkg     *Package
	call    *ast.CallExpr
	callee  *types.Func
	inputs  [][]*node // leaf nodes of each input expression
	results []*node   // per-call-site result nodes
}

// siteInput locates one input position of a summary site.
type siteInput struct {
	site *sumSite
	idx  int
}

// node is one vertex of the assignment graph.
type node struct {
	obj  types.Object // nil for call-result and passthrough nodes
	fn   *types.Func  // enclosing/declaring function, nil at package scope
	desc string
	pos  token.Pos
	out  []tEdge
}

// tEdge is one directed flow edge.
type tEdge struct {
	to *node
	// via is the callee when the edge crosses a call boundary
	// (argument->parameter, receiver->parameter, or flow into an
	// external passthrough node); nil for plain assignments.
	via *types.Func
	pos token.Pos
	// entry marks argument->parameter edges into analyzed callees.
	// They are traversed only in the final propagation phase (so sinks
	// inside a callee fire when a caller passes taint in) and never
	// during summary computation, where the callee's own summary
	// carries the flow instead.
	entry bool
}

// BuildModule indexes the packages and constructs the assignment graph.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		Funcs:       make(map[*types.Func]*FuncInfo),
		nodes:       make(map[types.Object]*node),
		fieldNds:    make(map[*types.Var]*node),
		extNodes:    make(map[*ast.CallExpr]*node),
		resultOwner: make(map[*node]*types.Func),
		litResults:  make(map[*ast.FuncLit][]*node),
		litParams:   make(map[*ast.FuncLit][]*node),
		sites:       make(map[*ast.CallExpr]*sumSite),
		siteIn:      make(map[*node][]siteInput),
		resultFan:   make(map[*node][]*node),
		Pkgs:        pkgs,
	}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	// Pass 1: index every declared function and materialize its
	// receiver, parameter, and result nodes so call edges can target
	// them before the body is walked.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: obj, Decl: fd, Pkg: pkg}
				m.Funcs[obj] = fi
				m.funcList = append(m.funcList, fi)
				sig := obj.Type().(*types.Signature)
				if r := sig.Recv(); r != nil {
					m.ensureNode(r, obj, "receiver "+r.Name()+" of "+shortFuncName(obj))
				}
				for i := 0; i < sig.Params().Len(); i++ {
					p := sig.Params().At(i)
					m.ensureNode(p, obj, "param "+p.Name()+" of "+shortFuncName(obj))
				}
				for i := 0; i < sig.Results().Len(); i++ {
					r := sig.Results().At(i)
					n := m.ensureNode(r, obj, fmt.Sprintf("result %d of %s", i, shortFuncName(obj)))
					m.resultOwner[n] = obj
				}
			}
		}
	}
	// Pass 2: walk every body and package-level initializer.
	for _, fi := range m.funcList {
		if fi.Decl.Body == nil {
			continue
		}
		sig := fi.Fn.Type().(*types.Signature)
		m.walk(fi.Pkg, fi.Fn, fi.Decl.Body, m.resultsOf(sig))
		if fi.Decl.Name.IsExported() && fi.Decl.Body != nil {
			m.collectReturns(fi)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) == 0 {
						continue
					}
					m.initSpec(pkg, vs)
				}
			}
		}
	}
	return m
}

// resultsOf returns the declared result nodes for a signature (the
// anonymous result vars the type-checker allocates for unnamed results
// are perfectly good node identities).
func (m *Module) resultsOf(sig *types.Signature) []*node {
	res := make([]*node, sig.Results().Len())
	for i := range res {
		res[i] = m.nodes[sig.Results().At(i)]
	}
	return res
}

// inputNodes returns a function's receiver-first input nodes.
func (m *Module) inputNodes(fn *types.Func) []*node {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var in []*node
	if r := sig.Recv(); r != nil {
		in = append(in, m.nodes[r])
	}
	for i := 0; i < sig.Params().Len(); i++ {
		in = append(in, m.nodes[sig.Params().At(i)])
	}
	return in
}

// ensureNode returns the node for obj, creating it with the given
// attribution if it does not exist yet.
func (m *Module) ensureNode(obj types.Object, fn *types.Func, desc string) *node {
	if n, ok := m.nodes[obj]; ok {
		return n
	}
	n := &node{obj: obj, fn: fn, desc: desc, pos: obj.Pos()}
	m.nodes[obj] = n
	m.nodeList = append(m.nodeList, n)
	return n
}

// fieldNode returns the module-wide node of one struct field object.
// Field nodes are shared across instances (field-based, not
// field-sensitive): precise enough to separate a struct's public
// metadata from its secret payload, coarse across instances.
func (m *Module) fieldNode(v *types.Var) *node {
	if n, ok := m.fieldNds[v]; ok {
		return n
	}
	n := &node{obj: v, desc: "field " + v.Name(), pos: v.Pos()}
	m.fieldNds[v] = n
	m.nodeList = append(m.nodeList, n)
	return n
}

// fieldVar resolves a selector to the struct field it reads, or nil
// when the selector is a method, package member, or unresolved.
func fieldVar(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// objNode resolves an identifier's object to its node, creating a plain
// variable node on demand. Non-variable objects (constants, types,
// functions, package names) yield nil.
func (m *Module) objNode(pkg *Package, fn *types.Func, id *ast.Ident) *node {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if n, ok := m.nodes[v]; ok {
		return n
	}
	return m.ensureNode(v, fn, "var "+v.Name())
}

// extNodeFor returns the passthrough node of an unanalyzed call site.
func (m *Module) extNodeFor(fn *types.Func, call *ast.CallExpr, callee *types.Func) *node {
	if n, ok := m.extNodes[call]; ok {
		return n
	}
	desc := "call"
	if callee != nil {
		desc = "result of " + shortFuncName(callee)
	}
	n := &node{fn: fn, desc: desc, pos: call.Pos()}
	m.extNodes[call] = n
	m.nodeList = append(m.nodeList, n)
	if callee != nil {
		m.resultOwner[n] = callee
	}
	return n
}

// ensureSite returns the summary site of a call to an analyzed callee,
// building its input leaf lists and per-site result nodes on first use.
func (m *Module) ensureSite(pkg *Package, fn *types.Func, call *ast.CallExpr, callee *types.Func) *sumSite {
	if s, ok := m.sites[call]; ok {
		return s
	}
	sig := callee.Type().(*types.Signature)
	s := &sumSite{caller: fn, pkg: pkg, call: call, callee: callee}
	m.sites[call] = s
	m.siteList = append(m.siteList, s)

	hasRecv := sig.Recv() != nil
	np := sig.Params().Len()
	nIn := np
	if hasRecv {
		nIn++
	}
	s.inputs = make([][]*node, nIn)
	if hasRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			s.inputs[0] = m.Leaves(pkg, fn, sel.X)
		}
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np || pi < 0 {
			break
		}
		idx := pi
		if hasRecv {
			idx++
		}
		s.inputs[idx] = append(s.inputs[idx], m.Leaves(pkg, fn, arg)...)
	}

	nr := sig.Results().Len()
	s.results = make([]*node, nr)
	shared := m.resultsOf(sig)
	for j := 0; j < nr; j++ {
		desc := "result of " + shortFuncName(callee)
		if nr > 1 {
			desc = fmt.Sprintf("result %d of %s", j, shortFuncName(callee))
		}
		n := &node{fn: fn, desc: desc, pos: call.Pos()}
		m.nodeList = append(m.nodeList, n)
		m.resultOwner[n] = callee
		s.results[j] = n
		if j < len(shared) && shared[j] != nil {
			m.resultFan[shared[j]] = append(m.resultFan[shared[j]], n)
		}
	}
	for idx, leaves := range s.inputs {
		for _, ln := range leaves {
			m.siteIn[ln] = append(m.siteIn[ln], siteInput{site: s, idx: idx})
		}
	}
	return s
}

// addEdge appends a flow edge.
func addEdge(from, to *node, via *types.Func, pos token.Pos) {
	if from == nil || to == nil || from == to {
		return
	}
	from.out = append(from.out, tEdge{to: to, via: via, pos: pos})
}

// addEntryEdge appends an argument->parameter edge into an analyzed
// callee; see tEdge.entry.
func addEntryEdge(from, to *node, via *types.Func, pos token.Pos) {
	if from == nil || to == nil || from == to {
		return
	}
	from.out = append(from.out, tEdge{to: to, via: via, pos: pos, entry: true})
}

// walk builds graph edges for every statement in body. fn is the
// nearest declared function (used for attribution and, for dpbudget,
// accountant coverage); rets are the result nodes return statements
// feed. Function literals recurse with their own result nodes but keep
// the outer fn attribution.
func (m *Module) walk(pkg *Package, fn *types.Func, body ast.Node, rets []*node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if x == body {
				return true
			}
			m.enterLit(pkg, fn, x)
			return false
		case *ast.AssignStmt:
			m.assign(pkg, fn, x.Lhs, x.Rhs)
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
						m.specAssign(pkg, fn, vs)
					}
				}
			}
		case *ast.ReturnStmt:
			m.ret(pkg, fn, x, rets)
		case *ast.RangeStmt:
			m.rangeEdges(pkg, fn, x)
		case *ast.SendStmt:
			for _, dst := range m.writeNodes(pkg, fn, x.Chan) {
				for _, src := range m.Leaves(pkg, fn, x.Value) {
					addEdge(src, dst, nil, x.Arrow)
				}
			}
		case *ast.CallExpr:
			m.callEdges(pkg, fn, x)
		}
		return true
	})
}

// enterLit wires up a function literal: parameter and result nodes are
// materialized so direct invocations can connect, and the body is
// walked with the literal's own result nodes.
func (m *Module) enterLit(pkg *Package, fn *types.Func, lit *ast.FuncLit) {
	sig, ok := pkg.Info.Types[lit].Type.(*types.Signature)
	if !ok {
		return
	}
	params := make([]*node, sig.Params().Len())
	for i := range params {
		p := sig.Params().At(i)
		params[i] = m.ensureNode(p, fn, "param "+p.Name()+" of func literal")
	}
	results := make([]*node, sig.Results().Len())
	for i := range results {
		r := sig.Results().At(i)
		results[i] = m.ensureNode(r, fn, fmt.Sprintf("result %d of func literal", i))
	}
	m.litParams[lit] = params
	m.litResults[lit] = results
	if lit.Body != nil {
		m.walk(pkg, fn, lit.Body, results)
	}
}

// initSpec handles package-level `var x = expr` initializers.
func (m *Module) initSpec(pkg *Package, vs *ast.ValueSpec) {
	for _, v := range vs.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				m.enterLit(pkg, nil, x)
				return false
			case *ast.CallExpr:
				m.callEdges(pkg, nil, x)
			}
			return true
		})
	}
	m.specAssign(pkg, nil, vs)
}

// specAssign connects a ValueSpec's initializers to its names.
func (m *Module) specAssign(pkg *Package, fn *types.Func, vs *ast.ValueSpec) {
	lhs := make([]ast.Expr, len(vs.Names))
	for i, n := range vs.Names {
		lhs[i] = n
	}
	m.assign(pkg, fn, lhs, vs.Values)
}

// assign connects right-hand sides to left-hand targets, handling
// multi-value calls and comma-ok forms.
func (m *Module) assign(pkg *Package, fn *types.Func, lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		r := ast.Unparen(rhs[0])
		if call, ok := r.(*ast.CallExpr); ok {
			srcs := m.callResultNodes(pkg, fn, call)
			for i, l := range lhs {
				for _, dst := range m.writeNodes(pkg, fn, l) {
					if len(srcs) == len(lhs) {
						addEdge(srcs[i], dst, nil, l.Pos())
					} else {
						for _, s := range srcs {
							addEdge(s, dst, nil, l.Pos())
						}
					}
				}
			}
			return
		}
		// v, ok := m[k] / x.(T) / <-ch: the value flows, the bool does not.
		for _, dst := range m.writeNodes(pkg, fn, lhs[0]) {
			for _, s := range m.Leaves(pkg, fn, rhs[0]) {
				addEdge(s, dst, nil, lhs[0].Pos())
			}
		}
		return
	}
	for i, r := range rhs {
		if i >= len(lhs) {
			break
		}
		for _, dst := range m.writeNodes(pkg, fn, lhs[i]) {
			for _, s := range m.Leaves(pkg, fn, r) {
				addEdge(s, dst, nil, lhs[i].Pos())
			}
		}
	}
}

// writeNodes resolves the nodes written by an assignment target: plain
// identifiers write their object, selector writes taint the field node
// and dirty every enclosing field and the root container, index/star/
// slice writes taint the container.
func (m *Module) writeNodes(pkg *Package, fn *types.Func, e ast.Expr) []*node {
	var out []*node
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return out
			}
			if n := m.objNode(pkg, fn, x); n != nil {
				out = append(out, n)
			}
			return out
		case *ast.SelectorExpr:
			// pkg-qualified var?
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					if n := m.objNode(pkg, fn, x.Sel); n != nil {
						out = append(out, n)
					}
					return out
				}
			}
			if fv := fieldVar(pkg, x); fv != nil {
				out = append(out, m.fieldNode(fv))
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return out
		}
	}
}

// ret connects return expressions to the current result nodes.
func (m *Module) ret(pkg *Package, fn *types.Func, r *ast.ReturnStmt, rets []*node) {
	if len(r.Results) == 0 {
		return // naked return: named results were written by assignments
	}
	if len(r.Results) == 1 && len(rets) > 1 {
		if call, ok := ast.Unparen(r.Results[0]).(*ast.CallExpr); ok {
			srcs := m.callResultNodes(pkg, fn, call)
			for i, dst := range rets {
				if len(srcs) == len(rets) {
					addEdge(srcs[i], dst, nil, r.Pos())
				} else {
					for _, s := range srcs {
						addEdge(s, dst, nil, r.Pos())
					}
				}
			}
			return
		}
	}
	for i, e := range r.Results {
		if i >= len(rets) {
			break
		}
		for _, s := range m.Leaves(pkg, fn, e) {
			addEdge(s, rets[i], nil, e.Pos())
		}
	}
}

// rangeEdges connects a range clause: values always flow from the
// ranged container; keys flow only for maps (slice/array keys are
// public indices).
func (m *Module) rangeEdges(pkg *Package, fn *types.Func, r *ast.RangeStmt) {
	srcs := m.Leaves(pkg, fn, r.X)
	tv, ok := pkg.Info.Types[r.X]
	isMap := false
	if ok && tv.Type != nil {
		_, isMap = types.Unalias(tv.Type).Underlying().(*types.Map)
	}
	if r.Key != nil && isMap {
		for _, dst := range m.writeNodes(pkg, fn, r.Key) {
			for _, s := range srcs {
				addEdge(s, dst, nil, r.Key.Pos())
			}
		}
	}
	if r.Value != nil {
		for _, dst := range m.writeNodes(pkg, fn, r.Value) {
			for _, s := range srcs {
				addEdge(s, dst, nil, r.Value.Pos())
			}
		}
	}
}

// calleeOf statically resolves a call's target function, unwrapping
// generic instantiations. Returns nil for dynamic calls, conversions,
// and builtins.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the name of a builtin callee, or "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	id, ok := fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// callEdges records the call site and adds argument/receiver edges.
func (m *Module) callEdges(pkg *Package, fn *types.Func, call *ast.CallExpr) {
	if isConversion(pkg, call) || builtinName(pkg, call) != "" {
		return // conversions and builtins are handled by Leaves
	}
	callee := calleeOf(pkg, call)
	m.Calls = append(m.Calls, &CallSite{Fn: fn, Pkg: pkg, Call: call, Callee: callee})

	// Direct invocation of a function literal.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		params := m.litParams[lit]
		for i, arg := range call.Args {
			if i >= len(params) {
				break
			}
			for _, s := range m.Leaves(pkg, fn, arg) {
				addEdge(s, params[i], nil, arg.Pos())
			}
		}
		return
	}

	if _, ok := m.Funcs[callee]; ok && callee != nil {
		// Analyzed callee: entry edges carry taint to the callee's own
		// sink sites; flows back out happen through the summary at this
		// site's result nodes (see taint.go).
		site := m.ensureSite(pkg, fn, call, callee)
		ins := m.inputNodes(callee)
		for idx, leaves := range site.inputs {
			if idx >= len(ins) || ins[idx] == nil {
				continue
			}
			for _, s := range leaves {
				addEntryEdge(s, ins[idx], callee, call.Pos())
			}
		}
		return
	}

	// External, interface, or dynamic call: args and receiver flow into
	// the per-site passthrough node so taint survives the black box.
	ext := m.extNodeFor(fn, call, callee)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); !ok || pkg.Info.Uses[id] == nil || !isPkgName(pkg, id) {
			for _, s := range m.Leaves(pkg, fn, sel.X) {
				addEdge(s, ext, callee, call.Pos())
			}
		}
	}
	for _, arg := range call.Args {
		for _, s := range m.Leaves(pkg, fn, arg) {
			addEdge(s, ext, callee, arg.Pos())
		}
	}
}

func isPkgName(pkg *Package, id *ast.Ident) bool {
	_, ok := pkg.Info.Uses[id].(*types.PkgName)
	return ok
}

// callResultNodes returns the nodes representing a call's results: the
// per-site result nodes for analyzed callees, the literal's result
// nodes for direct literal invocations, the passthrough node otherwise.
func (m *Module) callResultNodes(pkg *Package, fn *types.Func, call *ast.CallExpr) []*node {
	if isConversion(pkg, call) {
		if len(call.Args) == 1 {
			return m.Leaves(pkg, fn, call.Args[0])
		}
		return nil
	}
	if b := builtinName(pkg, call); b != "" {
		switch b {
		case "append", "copy", "min", "max", "real", "imag", "complex":
			var out []*node
			for _, a := range call.Args {
				out = append(out, m.Leaves(pkg, fn, a)...)
			}
			return out
		default: // len, cap, make, new, clear, delete, panic, ...
			return nil
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return m.litResults[lit]
	}
	callee := calleeOf(pkg, call)
	if _, ok := m.Funcs[callee]; ok && callee != nil {
		return m.ensureSite(pkg, fn, call, callee).results
	}
	return []*node{m.extNodeFor(fn, call, callee)}
}

// Leaves returns the graph nodes a read of expr draws from: identifiers
// map to their objects, field selections map to the module-wide field
// node, index/slice reads map to the container object, calls map to
// their result nodes. Nil-comparison operands are excluded (presence
// checks are not value reads). Struct composite literals additionally
// wire their element values into the matching field nodes.
func (m *Module) Leaves(pkg *Package, fn *types.Func, e ast.Expr) []*node {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if n := m.objNode(pkg, fn, x); n != nil {
			return []*node{n}
		}
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && isPkgName(pkg, id) {
			if n := m.objNode(pkg, fn, x.Sel); n != nil {
				return []*node{n}
			}
			return nil
		}
		// A field read draws from the field node only: the root object's
		// taint does not smear onto its public fields.
		if fv := fieldVar(pkg, x); fv != nil {
			return []*node{m.fieldNode(fv)}
		}
		return m.Leaves(pkg, fn, x.X) // method value etc.
	case *ast.IndexExpr:
		return m.Leaves(pkg, fn, x.X)
	case *ast.IndexListExpr:
		return m.Leaves(pkg, fn, x.X)
	case *ast.SliceExpr:
		return m.Leaves(pkg, fn, x.X)
	case *ast.StarExpr:
		return m.Leaves(pkg, fn, x.X)
	case *ast.UnaryExpr:
		return m.Leaves(pkg, fn, x.X)
	case *ast.BinaryExpr:
		if isNilComparison(x) {
			return nil
		}
		return append(m.Leaves(pkg, fn, x.X), m.Leaves(pkg, fn, x.Y)...)
	case *ast.CallExpr:
		return m.callResultNodes(pkg, fn, x)
	case *ast.CompositeLit:
		var st *types.Struct
		if tv, ok := pkg.Info.Types[x]; ok && tv.Type != nil {
			st, _ = types.Unalias(tv.Type).Underlying().(*types.Struct)
			if p, ok := types.Unalias(tv.Type).Underlying().(*types.Pointer); ok {
				st, _ = types.Unalias(p.Elem()).Underlying().(*types.Struct)
			}
		}
		var out []*node
		for i, el := range x.Elts {
			var fv *types.Var
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
						fv = v
					}
				}
				el = kv.Value
			} else if st != nil && i < st.NumFields() {
				fv = st.Field(i)
			}
			ls := m.Leaves(pkg, fn, el)
			if fv != nil {
				for _, s := range ls {
					addEdge(s, m.fieldNode(fv), nil, el.Pos())
				}
			}
			out = append(out, ls...)
		}
		return out
	case *ast.TypeAssertExpr:
		return m.Leaves(pkg, fn, x.X)
	}
	return nil
}

// isNilComparison reports whether b is == or != against nil.
func isNilComparison(b *ast.BinaryExpr) bool {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isNil(b.X) || isNil(b.Y)
}

// collectReturns records the result expressions of an exported function
// for the dpbudget exported-return rule.
func (m *Module) collectReturns(fi *FuncInfo) {
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != fi.Decl.Body {
			return false
		}
		if r, ok := n.(*ast.ReturnStmt); ok {
			for _, e := range r.Results {
				m.Returns = append(m.Returns, &ReturnSite{Fn: fi.Fn, Pkg: fi.Pkg, Expr: e})
			}
		}
		return true
	})
}

// FuncKey renders a function's stable registry key: "pkgpath.Name" for
// package functions, "(pkgpath.Type).Name" for methods (pointer
// receivers are flattened, so one key matches both spellings).
// Interface methods key on the interface type, so calls through
// e.g. transport.PartyConn match without knowing the concrete conn.
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() != nil {
			return fn.Pkg().Path() + "." + fn.Name()
		}
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Pkg() != nil {
		return "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// shortFuncName is FuncKey without the package path prefix, for witness
// rendering.
func shortFuncName(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	key := FuncKey(fn)
	// Trim "sqm/internal/" style prefixes inside the parens and before
	// plain names to keep witnesses readable.
	return trimPkgPaths(key)
}

// trimPkgPaths shortens import paths in a key to their last element.
func trimPkgPaths(key string) string {
	out := make([]byte, 0, len(key))
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			start = i + 1
			continue
		}
		if key[i] == '(' || key[i] == ')' || key[i] == '.' {
			out = append(out, key[start:i+1]...)
			start = i + 1
		}
	}
	out = append(out, key[start:]...)
	return string(out)
}

// PosString renders a position as "file.go:line" with the bare file
// name, for compact witness paths.
func (m *Module) PosString(pos token.Pos) string {
	p := m.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
