package main

// Determinism checks. The figures and ablation tables are only
// reproducible because every simulation run is a pure function of its
// seed; these analyzers keep wall-clock reads, process-global randomness,
// and map-iteration-order-dependent output from leaking back in.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// wallTimeFuncs are the time package functions that read or wait on the
// real clock. time.Duration arithmetic and time.Time methods are fine —
// the poison is where the instant comes from.
var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "Sleep": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runWalltime(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.ObjectOf(id).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallTimeFuncs[fn.Name()] {
				return true
			}
			// Methods like time.Time.After compare instants; only the
			// package-level functions touch the wall clock.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if boundaryFile(p, id.Pos()) {
				return true
			}
			p.Reportf(id.Pos(), "time.%s reads the wall clock; deterministic code must take its instant from a simclock.Clock (boundary files: internal/simclock, internal/athena/wall.go, internal/transport, cmd/athenad)", fn.Name())
			return true
		})
	}
}

// globalRandFuncs are the math/rand top-level functions backed by the
// shared process-wide source. rand.New / rand.NewSource and *rand.Rand
// methods are the sanctioned seeded alternative.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runGlobalRand(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.ObjectOf(id).(*types.Func)
			if !ok || fn.Pkg() == nil || !globalRandFuncs[fn.Name()] {
				return true
			}
			if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Top-level functions only; methods on *rand.Rand carry a seed.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if boundaryFile(p, id.Pos()) {
				return true
			}
			p.Reportf(id.Pos(), "rand.%s draws from the process-global source; use a seeded *rand.Rand so runs replay from their seed", fn.Name())
			return true
		})
	}
}

// runMapOrder flags map-range loops in simulation-reachable packages whose
// body produces order-sensitive output: a direct print, an append to a
// slice declared outside the loop that the function never sorts, or an
// argmax whose comparison is not a total order. Loops that aggregate
// commutatively (sums, map writes, sorted-key collection, a max of the
// compared values themselves) pass untouched.
func runMapOrder(p *Pass) {
	if !simScoped(p) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			seen := make(map[ast.Node]bool) // dedup sinks under nested map ranges
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRangeBody(p, fd, rs, seen)
				return true
			})
		}
	}
}

// checkMapRangeBody scans one map-range body for order-sensitive sinks.
func checkMapRangeBody(p *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, seen map[ast.Node]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if seen[n] {
			return true
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			checkArgmax(p, fd, rs, n, seen)
		case *ast.CallExpr:
			if name, ok := printLike(p, n); ok {
				seen[n] = true
				p.Reportf(n.Pos(), "%s inside a map range emits in map-iteration order; collect and sort keys first", name)
			}
		case *ast.AssignStmt:
			// s += ... on a string declared outside the loop concatenates
			// in map-iteration order.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if dest, ok := n.Lhs[0].(*ast.Ident); ok {
					obj := p.ObjectOf(dest)
					if obj != nil && obj.Pos() != token.NoPos &&
						(obj.Pos() < rs.Pos() || obj.Pos() > rs.End()) {
						if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
							seen[n] = true
							p.Reportf(n.Pos(), "%s concatenates in map-iteration order in %s; iterate sorted keys instead", dest.Name, fd.Name.Name)
						}
					}
				}
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(n.Lhs) {
					continue
				}
				dest, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.ObjectOf(dest)
				if obj == nil || obj.Pos() == token.NoPos {
					continue
				}
				// Only appends to slices declared outside the loop leak
				// iteration order out of it.
				if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
					continue
				}
				if sortedInFunc(p, fd, obj) {
					seen[n] = true
					continue
				}
				seen[n] = true
				p.Reportf(n.Pos(), "%s accumulates in map-iteration order and is never sorted in %s; sort it (or iterate sorted keys)", dest.Name, fd.Name.Name)
			}
		}
		return true
	})
}

// checkArgmax flags an argmax inside a map range: an if whose condition
// orders two values strictly (<, >, or a Before/After method) with no
// equality test breaking their ties, and whose body keeps something other
// than a compared value in a variable declared outside the loop. Of two
// entries that compare equal, the one iterated last (or first) wins, so
// what the variable ends up holding is map-iteration order.
func checkArgmax(p *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, is *ast.IfStmt, seen map[ast.Node]bool) {
	var operands []string
	tieBroken := false
	ast.Inspect(is.Cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR:
				operands = append(operands, types.ExprString(n.X), types.ExprString(n.Y))
			case token.EQL:
				if !isSentinel(p, n.X) && !isSentinel(p, n.Y) {
					tieBroken = true
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) != 1 {
				return true
			}
			switch sel.Sel.Name {
			case "Before", "After":
				operands = append(operands, types.ExprString(sel.X), types.ExprString(n.Args[0]))
			case "Equal":
				tieBroken = true
			}
		}
		return true
	})
	if len(operands) == 0 || tieBroken {
		return
	}
	for _, stmt := range is.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || seen[as] {
			continue
		}
		for i, lhs := range as.Lhs {
			dest, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			obj := p.ObjectOf(dest)
			if obj == nil || obj.Pos() == token.NoPos || (obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()) {
				continue
			}
			if slices.Contains(operands, types.ExprString(as.Rhs[i])) {
				continue // a max of the compared values: ties hold the same value
			}
			seen[as] = true
			p.Reportf(as.Pos(), "%s is an argmax over a map range in %s, and its comparison leaves ties to map-iteration order; break them by a total order", dest.Name, fd.Name.Name)
			break
		}
	}
}

// isSentinel reports whether e is nil or a literal: an equality test
// against one (best == nil) checks for a first entry, it breaks no tie.
func isSentinel(p *Pass, e ast.Expr) bool {
	if _, ok := e.(*ast.BasicLit); ok {
		return true
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.ObjectOf(id).(*types.Nil)
	return isNil
}

// printLike reports whether call is a fmt print/sprint or a direct write
// to a Builder/Buffer/Writer — sinks where emission order is the output.
func printLike(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		// Only emission: Sprint*/Errorf are pure and their results are
		// judged at their sink (append, +=) instead.
		if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") {
			return "fmt." + fn.Name(), true
		}
	case "strings", "bytes":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			switch fn.Name() {
			case "WriteString", "WriteByte", "WriteRune", "Write":
				return fn.Pkg().Name() + " " + fn.Name(), true
			}
		}
	}
	return "", false
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedInFunc reports whether fd contains a sort/slices sort call that
// mentions obj, anywhere in the function (sorting before reuse is the
// caller's contract; position is not checked so helpers that sort in a
// defer or at the top of a retry loop still pass). A call to a
// same-package helper that passes obj to a parameter the helper directly
// sorts also counts — sortAdverts-style wrappers are how shared ordering
// is factored out, and flagging their callers would punish the refactor.
func sortedInFunc(p *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSortCall(p, call) {
			for _, arg := range call.Args {
				if mentionsObject(p, arg, obj) {
					found = true
					return false
				}
			}
			return true
		}
		// Same-package helper: resolve its declaration and check whether
		// the parameter receiving obj is itself directly sorted inside.
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.ObjectOf(id).(*types.Func)
		if !ok || fn.Pkg() != p.Pkg.Types {
			return true
		}
		decl := funcDeclOf(p, fn)
		if decl == nil {
			return true
		}
		for i, arg := range call.Args {
			if mentionsObject(p, arg, obj) && helperSortsParam(p, decl, i) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall reports whether call invokes a function from package sort or
// slices (the sorting verbs all live there; a Compare/Contains false hit
// is harmless because the argument must also be the accumulated slice).
func isSortCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "sort" || path == "slices"
}

// funcDeclOf finds the declaration of a same-package function, or nil.
func funcDeclOf(p *Pass, fn *types.Func) *ast.FuncDecl {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if p.ObjectOf(fd.Name) == fn {
				return fd
			}
		}
	}
	return nil
}

// helperSortsParam reports whether decl's argIdx-th parameter is passed
// to a direct sort/slices call in decl's body. One level deep only:
// a helper must do its own sorting, not delegate further.
func helperSortsParam(p *Pass, decl *ast.FuncDecl, argIdx int) bool {
	if decl.Body == nil || decl.Type.Params == nil {
		return false
	}
	var param types.Object
	idx := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if idx == argIdx {
				param = p.ObjectOf(name)
			}
			idx++
		}
	}
	if param == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(p, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(p, arg, param) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentionsObject(p *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
