package lintkit

// A CHA-style call graph over the loaded module (plus any fixture
// packages under analysis). Nodes are declared functions/methods and
// function literals; edges over-approximate the dynamic call relation:
//
//   - a call that resolves statically to a module function gets a direct
//     edge;
//   - a call through an interface method gets edges to every module
//     method of that name and signature whose receiver type implements
//     the interface (class-hierarchy analysis);
//   - a call through a function value (a field, variable, parameter, or
//     call result of func type) gets edges to every module function or
//     literal of identical signature whose value is taken somewhere —
//     assigned, stored in a field, or passed as an argument;
//   - a function literal is additionally reachable from its enclosing
//     function (it closes over that frame; if the frame runs, the
//     literal may).
//
// The over-approximation is deliberate: reachability clients (laneshare,
// floatorder) must never miss lane code, and a too-large reachable set
// costs at worst a spurious finding that code review rejects, never a
// missed determinism hazard.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncNode is one call-graph node: a declared function/method (Fn,
// Decl) or a function literal (Lit), with the package it was declared
// in and its resolved callees.
type FuncNode struct {
	Fn   *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for literals
	Pkg  *Package

	Callees []*FuncNode

	// AddressTaken marks functions whose value escapes a direct call:
	// stored, passed, or returned. Dynamic func-value calls may land on
	// any address-taken function of identical signature.
	AddressTaken bool

	sigKey string
}

// Name returns a human-readable identifier for diagnostics.
func (n *FuncNode) Name() string {
	if n.Fn != nil {
		return n.Fn.Name()
	}
	return "func literal"
}

// Body returns the node's statement body, or nil.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return token.NoPos
}

// CallGraph is the whole-module call graph. Build one with
// BuildCallGraph (or take the session's shared instance).
type CallGraph struct {
	mod   *Module
	nodes []*FuncNode

	byFn  map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// methodsByName indexes module methods for interface-dispatch
	// resolution; takenBySig indexes address-taken functions for
	// func-value dispatch; litOfVar pins variables that are assigned
	// exactly one function literal and never reassigned, so calls
	// through them resolve to that literal instead of the whole
	// same-signature CHA set.
	methodsByName map[string][]*FuncNode
	takenBySig    map[string][]*FuncNode
	litOfVar      map[*types.Var]*FuncNode
}

// NodeOf returns the node of a declared function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.byFn[fn] }

// LitNode returns the node of a function literal, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// Nodes returns every node in the graph.
func (g *CallGraph) Nodes() []*FuncNode { return g.nodes }

// Reachable returns the set of nodes reachable from roots over call
// edges (roots included).
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]bool {
	reach := make(map[*FuncNode]bool)
	stack := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if r != nil && !reach[r] {
			reach[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.Callees {
			if !reach[c] {
				reach[c] = true
				stack = append(stack, c)
			}
		}
	}
	return reach
}

// TakenWithSignature returns the address-taken functions whose
// signature is identical to sig (receiver excluded) — the candidate
// targets of a dynamic call through a value of that type.
func (g *CallGraph) TakenWithSignature(sig *types.Signature) []*FuncNode {
	return g.takenBySig[sigKey(sig)]
}

// sigKey renders a receiver-free signature fingerprint: dynamic
// dispatch can only land on a function whose parameters and results
// match the call site's static type exactly.
func sigKey(sig *types.Signature) string {
	if sig == nil {
		return "?"
	}
	key := ""
	if sig.Variadic() {
		key = "..."
	}
	for i := 0; i < sig.Params().Len(); i++ {
		key += sig.Params().At(i).Type().String() + ","
	}
	key += "->"
	for i := 0; i < sig.Results().Len(); i++ {
		key += sig.Results().At(i).Type().String() + ","
	}
	return key
}

// BuildCallGraph constructs the call graph over pkgs. Callees outside
// pkgs (stdlib, unanalyzed code) have no node and produce no edge.
func BuildCallGraph(mod *Module, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		mod:           mod,
		byFn:          make(map[*types.Func]*FuncNode),
		byLit:         make(map[*ast.FuncLit]*FuncNode),
		methodsByName: make(map[string][]*FuncNode),
		takenBySig:    make(map[string][]*FuncNode),
		litOfVar:      make(map[*types.Var]*FuncNode),
	}
	// Pass 1: create a node per declared function and per literal, and
	// index methods and address-taken functions.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Fn: obj, Decl: fd, Pkg: pkg, sigKey: sigKey(obj.Type().(*types.Signature))}
				g.nodes = append(g.nodes, n)
				g.byFn[obj] = n
				if fd.Recv != nil {
					g.methodsByName[obj.Name()] = append(g.methodsByName[obj.Name()], n)
				}
				if fd.Body == nil {
					continue
				}
				g.addLits(pkg, n, fd.Body)
			}
		}
	}
	// Pass 2: mark address-taken functions and literals, and bind
	// single-assignment literal-valued variables to their literals.
	for _, pkg := range pkgs {
		g.markTaken(pkg)
		g.bindLitVars(pkg)
	}
	for _, n := range g.nodes {
		if n.AddressTaken {
			g.takenBySig[n.sigKey] = append(g.takenBySig[n.sigKey], n)
		}
	}
	// Pass 3: resolve call edges.
	for _, n := range g.nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		g.resolveCalls(n, body)
	}
	return g
}

// addLits creates nodes for every function literal nested in body,
// attributing each to pkg and linking enclosing -> literal.
func (g *CallGraph) addLits(pkg *Package, enclosing *FuncNode, body ast.Node) {
	ast.Inspect(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		sig, _ := pkg.Info.TypeOf(lit).(*types.Signature)
		ln := &FuncNode{Lit: lit, Pkg: pkg, sigKey: sigKey(sig)}
		g.nodes = append(g.nodes, ln)
		g.byLit[lit] = ln
		enclosing.Callees = append(enclosing.Callees, ln)
		g.addLits(pkg, ln, lit.Body)
		return false // inner literals handled by the recursion
	})
}

// markTaken scans a package for function values that escape a direct
// call: identifiers or selectors resolving to a *types.Func anywhere
// except the Fun position of a call, and literals not immediately
// invoked.
func (g *CallGraph) markTaken(pkg *Package) {
	called := make(map[ast.Node]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			called[unparen(call.Fun)] = true
			return true
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.FuncLit:
				if !called[n] {
					if ln := g.byLit[n]; ln != nil {
						ln.AddressTaken = true
					}
				}
			case *ast.Ident:
				if called[n] {
					return true
				}
				if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
					if fnNode := g.byFn[fn]; fnNode != nil {
						fnNode.AddressTaken = true
					}
				}
			case *ast.SelectorExpr:
				if called[n] {
					return true
				}
				if fn, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok {
					if fnNode := g.byFn[fn]; fnNode != nil {
						fnNode.AddressTaken = true
					}
				}
			}
			return true
		})
	}
}

// bindLitVars finds variables whose every assignment is a single
// defining `v := func(...) {...}` (or `var v = func...`) and binds them
// to the literal's node. A call through such a variable can only invoke
// that literal, so the dynamic same-signature fallback would be pure
// noise for it.
func (g *CallGraph) bindLitVars(pkg *Package) {
	bound := make(map[*types.Var]*ast.FuncLit)
	disqualified := make(map[*types.Var]bool)
	lhsVar := func(e ast.Expr) *types.Var {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := pkg.Info.Uses[id].(*types.Var)
		return v
	}
	consider := func(v *types.Var, rhs ast.Expr, defining bool) {
		if v == nil {
			return
		}
		lit, isLit := unparen(rhs).(*ast.FuncLit)
		if !defining || !isLit || bound[v] != nil {
			disqualified[v] = true
			return
		}
		bound[v] = lit
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					for _, lhs := range n.Lhs {
						if v := lhsVar(lhs); v != nil {
							disqualified[v] = true
						}
					}
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
						consider(v, n.Rhs[i], true)
					} else if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
						disqualified[v] = true // reassignment
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					v, ok := pkg.Info.Defs[id].(*types.Var)
					if !ok {
						continue
					}
					if i < len(n.Values) {
						consider(v, n.Values[i], true)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if v := lhsVar(n.X); v != nil {
						disqualified[v] = true // address escapes; writes untrackable
					}
				}
			}
			return true
		})
	}
	for v, lit := range bound {
		if disqualified[v] {
			continue
		}
		if ln := g.byLit[lit]; ln != nil {
			g.litOfVar[v] = ln
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// resolveCalls adds edges for every call lexically inside body but not
// inside a nested literal (literals own their calls).
func (g *CallGraph) resolveCalls(n *FuncNode, body ast.Node) {
	ast.Inspect(body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		g.addCallEdges(n, call)
		return true
	})
}

// addCallEdges resolves one call expression to its possible targets.
func (g *CallGraph) addCallEdges(n *FuncNode, call *ast.CallExpr) {
	n.Callees = append(n.Callees, g.CallTargets(n.Pkg, call)...)
}

// CallTargets resolves one call expression in pkg to its possible
// module-internal targets: the statically-named function, the CHA
// expansion of an interface method, or — for a call through a bare
// function value — every address-taken function of identical signature.
// Conversions, builtins, and calls landing outside the analyzed
// packages resolve to nothing.
func (g *CallGraph) CallTargets(pkg *Package, call *ast.CallExpr) []*FuncNode {
	info := pkg.Info
	fun := unparen(call.Fun)

	// Immediately-invoked literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if ln := g.byLit[lit]; ln != nil {
			return []*FuncNode{ln}
		}
		return nil
	}

	// Statically-resolved function or method.
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && types.IsInterface(s.Recv()) {
				return g.interfaceTargets(fn, s.Recv())
			}
		}
		if target := g.byFn[fn]; target != nil {
			return []*FuncNode{target}
		}
		return nil
	}
	if _, ok := obj.(*types.Builtin); ok {
		return nil
	}
	if _, ok := obj.(*types.TypeName); ok {
		return nil // conversion, not a call
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil // conversion through a func-typed named type
	}
	// A variable bound to exactly one function literal calls that
	// literal and nothing else.
	if v, ok := obj.(*types.Var); ok {
		if ln := g.litOfVar[v]; ln != nil {
			return []*FuncNode{ln}
		}
	}
	// Dynamic call through a function value: CHA over address-taken
	// functions of identical signature. Underlying() so calls through
	// named func types (netsim.Handler) resolve too.
	if t := info.TypeOf(call.Fun); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			return g.takenBySig[sigKey(sig)]
		}
	}
	return nil
}

// interfaceTargets links an interface-method call to every module
// method of the same name whose receiver type implements the interface.
func (g *CallGraph) interfaceTargets(fn *types.Func, recv types.Type) []*FuncNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncNode
	want := sigKey(fn.Type().(*types.Signature))
	for _, cand := range g.methodsByName[fn.Name()] {
		if cand.sigKey != want {
			continue
		}
		crecv := cand.Fn.Type().(*types.Signature).Recv()
		if crecv == nil {
			continue
		}
		t := crecv.Type()
		if types.Implements(t, iface) {
			out = append(out, cand)
			continue
		}
		// A value-receiver method set may still satisfy the interface
		// through the pointer type.
		if _, isPtr := t.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(t), iface) {
				out = append(out, cand)
			}
		}
	}
	return out
}
