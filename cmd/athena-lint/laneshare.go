package main

// Lane-isolation check. Every simulated node schedules on the kernel's
// one lane, so the kernel no longer needs a handler to keep to its own
// node's state. The node does: a handler that writes package-level state
// or reaches into another node makes the outcome depend on which of two
// same-instant events the schedule happens to run first, and a node that
// is one goroutine fed by its own inbox (the daemon's target shape) can
// only share what it sends. This check turns that convention into a proof
// obligation: it computes the set of functions reachable from kernel
// lane entry points (handlers registered through AtCall / AfterCall /
// AfterArg, resolved through stored method values and func-typed fields
// by the call graph) and flags, inside that set, writes to package-level
// variables and writes or calls that reach into another instance of the
// handler's own type — the "peer" shape that bypasses the message path.
// A held mutex exempts a write: state behind a lock is a shared service
// (the socket daemon's goroutines use it too), and the lock checks audit
// the mutex itself.

import (
	"go/ast"
	"go/types"

	"athena/internal/lintkit"
)

// laneEntryMethods are the kernel registration calls whose second
// argument is a lane handler. Matched by name (like the hot-lock table)
// so fixtures can model the kernel without importing it.
var laneEntryMethods = map[string]bool{
	"AtCall":    true,
	"AfterCall": true,
	"AfterArg":  true,
}

// laneReachable computes, once per session, the call-graph nodes
// reachable from any lane handler registered anywhere in the module or
// the fixture under analysis.
func laneReachable(p *Pass) map[*lintkit.FuncNode]bool {
	const key = "lane.reach"
	if r, ok := p.Session.Cache[key].(map[*lintkit.FuncNode]bool); ok {
		return r
	}
	g := p.Session.Graph()
	reach := g.Reachable(laneRoots(g, sessionPkgs(p)))
	p.Session.Cache[key] = reach
	return reach
}

// laneRoots scans pkgs for handler registrations and resolves each
// handler argument to its call-graph nodes.
func laneRoots(g *lintkit.CallGraph, pkgs []*Package) []*lintkit.FuncNode {
	var roots []*lintkit.FuncNode
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !laneEntryMethods[sel.Sel.Name] || len(call.Args) < 2 {
					return true
				}
				roots = append(roots, handlerNodes(g, pkg, call.Args[1])...)
				return true
			})
		}
	}
	return roots
}

// sessionPkgs is the union of the module's packages and the packages
// under analysis (fixtures), module first.
func sessionPkgs(p *Pass) []*Package {
	pkgs := append([]*Package(nil), p.Mod.Pkgs...)
	seen := make(map[*Package]bool, len(pkgs))
	for _, q := range pkgs {
		seen[q] = true
	}
	for _, q := range p.Session.Pkgs {
		if !seen[q] {
			pkgs = append(pkgs, q)
		}
	}
	return pkgs
}

// handlerNodes resolves the handler argument of a registration call to
// call-graph roots: a literal or named function directly, and a
// func-typed field or variable (the stored-method-value hot path) to
// every address-taken function of the same signature.
func handlerNodes(g *lintkit.CallGraph, pkg *Package, arg ast.Expr) []*lintkit.FuncNode {
	switch a := arg.(type) {
	case *ast.FuncLit:
		if n := g.LitNode(a); n != nil {
			return []*lintkit.FuncNode{n}
		}
		return nil
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[a].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return []*lintkit.FuncNode{n}
			}
			return nil
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[a.Sel].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return []*lintkit.FuncNode{n}
			}
			return nil
		}
	case *ast.ParenExpr:
		return handlerNodes(g, pkg, a.X)
	}
	if t := pkg.Info.TypeOf(arg); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			return g.TakenWithSignature(sig)
		}
	}
	return nil
}

func runLaneShare(p *Pass) {
	if !simScoped(p) {
		return
	}
	reach := laneReachable(p)
	for _, n := range p.Session.Graph().Nodes() {
		if n.Pkg != p.Pkg || !reach[n] || n.Body() == nil {
			continue
		}
		if boundaryFile(p, n.Pos()) {
			continue
		}
		checkLaneBody(p, n)
	}
}

// checkLaneBody walks one lane-reachable function linearly, tracking how
// many mutexes are held (any mutex — the lock checks audit which), and
// flags the isolation-breaking shapes reached with no lock held.
func checkLaneBody(p *Pass, n *lintkit.FuncNode) {
	recvObj, recvType := receiverOf(p, n)
	held := 0
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false // nested literals are their own nodes
		}
		if d, isDefer := node.(*ast.DeferStmt); isDefer {
			if _, _, ok := mutexMethod(p, d.Call); ok {
				return false // deferred unlock: lock held to function end
			}
			return true
		}
		switch node := node.(type) {
		case *ast.CallExpr:
			if method, _, ok := mutexMethod(p, node); ok {
				switch method {
				case "Lock", "RLock", "TryLock", "TryRLock":
					held++
				case "Unlock", "RUnlock":
					if held > 0 {
						held--
					}
				}
				return true
			}
			if held > 0 {
				return true
			}
			// Peer-instance method call: lane code invoking a method on
			// another value of its own receiver type.
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				if base, ok := peerInstance(p, sel.X, recvObj, recvType); ok {
					p.Reportf(node.Pos(), "lane handler code calls %s.%s on another %s; cross-lane effects must be posted to the mailbox (Lane.Post) and merged at the barrier", base, sel.Sel.Name, recvType.Obj().Name())
				}
			}
		case *ast.AssignStmt:
			if held > 0 {
				return true
			}
			for _, lhs := range node.Lhs {
				checkLaneWrite(p, n, lhs, recvObj, recvType)
			}
		case *ast.IncDecStmt:
			if held > 0 {
				return true
			}
			checkLaneWrite(p, n, node.X, recvObj, recvType)
		}
		return true
	})
}

// checkLaneWrite flags one assignment target if it is a package-level
// variable or state of a peer instance.
func checkLaneWrite(p *Pass, n *lintkit.FuncNode, lhs ast.Expr, recvObj types.Object, recvType *types.Named) {
	base := baseIdent(lhs)
	if base == nil {
		return
	}
	obj := p.ObjectOf(base)
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); ok && v.Parent() == p.Pkg.Types.Scope() {
		p.Reportf(lhs.Pos(), "lane handler code writes package-level var %s; a lane's clock moves only with its own events, so the write takes hold at a virtual time no event scheduled and the two lane layouts stop agreeing — thread the state through the lane or guard it with a mutex", base.Name)
		return
	}
	if _, bare := lhs.(*ast.Ident); bare {
		return // a bare local; only selector paths can reach peer state
	}
	if name, ok := peerInstance(p, base, recvObj, recvType); ok {
		p.Reportf(lhs.Pos(), "lane handler code writes %s, state of another %s; cross-lane effects must be posted to the mailbox (Lane.Post) and merged at the barrier", name+"."+pathAfterBase(p, lhs), recvType.Obj().Name())
	}
}

// receiverOf returns the receiver object and named type of a method
// node, or nils for plain functions and literals.
func receiverOf(p *Pass, n *lintkit.FuncNode) (types.Object, *types.Named) {
	if n.Decl == nil || n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return nil, nil
	}
	field := n.Decl.Recv.List[0]
	var obj types.Object
	if len(field.Names) > 0 {
		obj = p.ObjectOf(field.Names[0])
	}
	t := n.Pkg.Info.TypeOf(field.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return obj, named
}

// peerInstance reports whether e denotes a value of the enclosing
// method's receiver type that is not the receiver itself — the "other
// lane" shape. Returns the rendered base expression.
func peerInstance(p *Pass, e ast.Expr, recvObj types.Object, recvType *types.Named) (string, bool) {
	if recvType == nil {
		return "", false
	}
	base := baseIdent(e)
	if base == nil {
		return "", false
	}
	obj := p.ObjectOf(base)
	if obj == nil || obj == recvObj {
		return "", false
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj() == recvType.Obj() {
		return base.Name, true
	}
	return "", false
}

// baseIdent peels selectors, indexes, derefs, and parens down to the
// root identifier of an lvalue path, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pathAfterBase renders the field path of an lvalue without its base
// identifier, for messages ("inbox" out of "dst.inbox").
func pathAfterBase(p *Pass, lhs ast.Expr) string {
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		return pathAfterBase(p, idx.X)
	}
	return p.Render(lhs)
}
