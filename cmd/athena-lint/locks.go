package main

// Lock-discipline checks: every Lock paired with a same-function Unlock,
// and nested acquisition of the known hot locks in canonical order. The
// membership layer's correctness under -race depends on these holding
// everywhere, not just in the packages the race job happens to exercise.
// Copying a lock or an atomic is go vet's copylocks check, which ci.sh
// and the CI lint job run beside this one.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"athena/internal/lintkit"
)

// lockUse tallies one guarded expression's acquire/release calls within a
// function.
type lockUse struct {
	lockPos, rlockPos ast.Node
	unlock, runlock   bool
}

func runLockHeld(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Lock-wrapper methods legitimately acquire without releasing.
			switch fd.Name.Name {
			case "Lock", "Unlock", "RLock", "RUnlock":
				continue
			}
			uses := make(map[string]*lockUse)
			order := []string{}
			use := func(key string) *lockUse {
				u, ok := uses[key]
				if !ok {
					u = &lockUse{}
					uses[key] = u
					order = append(order, key)
				}
				return u
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method, recv, ok := mutexMethod(p, call)
				if !ok {
					return true
				}
				u := use(p.Render(recv))
				switch method {
				case "Lock", "TryLock":
					if u.lockPos == nil {
						u.lockPos = call
					}
				case "RLock", "TryRLock":
					if u.rlockPos == nil {
						u.rlockPos = call
					}
				case "Unlock":
					u.unlock = true
				case "RUnlock":
					u.runlock = true
				}
				return true
			})
			for _, key := range order {
				u := uses[key]
				if u.lockPos != nil && !u.unlock {
					p.Reportf(u.lockPos.Pos(), "%s.Lock() with no %s.Unlock() in %s; release in the same function (defer preferred) or //lint:allow lockheld for a lock handoff", key, key, fd.Name.Name)
				}
				if u.rlockPos != nil && !u.runlock {
					p.Reportf(u.rlockPos.Pos(), "%s.RLock() with no %s.RUnlock() in %s; release in the same function (defer preferred) or //lint:allow lockheld for a lock handoff", key, key, fd.Name.Name)
				}
			}
		}
	}
}

// hotLockRank assigns the canonical acquisition order of the named hot
// locks. Lower ranks are acquired first; acquiring a lower rank while
// holding a higher one within the same chain is an inversion. Types are
// matched by name so the fixture corpus can model them without importing
// unexported state.
var hotLockRank = map[string]struct {
	chain string
	rank  int
}{
	"Node":          {"athena", 0}, // membership state lives under Node.mu
	"ShardRouter":   {"athena", 1}, // routed-lookup state; called from under Node.mu
	"Directory":     {"athena", 2},
	"InterestTable": {"athena", 3},
	"tcpPeer":       {"transport", 0},
	"TCPTransport":  {"transport", 1},
}

var hotLockOrder = map[string]string{
	"athena":    "Node < ShardRouter < Directory < InterestTable",
	"transport": "tcpPeer < TCPTransport",
}

// hotLockOwner names the hot-lock type guarding expressions like n.mu:
// the type of the receiver the mutex field hangs off.
func hotLockOwner(pkg *Package, recv ast.Expr) (string, bool) {
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	t := pkg.Info.TypeOf(sel.X)
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	name := named.Obj().Name()
	if _, hot := hotLockRank[name]; !hot || !hasMutexField(named) {
		return "", false
	}
	return name, true
}

// hotLockGraph builds (once per session) the inferred acquisition-order
// graph over the hot lock classes: the held-set walk of every function
// plus transitive acquisitions propagated through the call graph.
func hotLockGraph(p *Pass) *lintkit.LockGraph {
	const key = "lockorder.graph"
	if lg, ok := p.Session.Cache[key].(*lintkit.LockGraph); ok {
		return lg
	}
	lg := lintkit.BuildLockGraph(p.Session.Graph(), hotLockOwner)
	p.Session.Cache[key] = lg
	return lg
}

// runLockOrder checks the inferred lock-acquisition graph against the
// declared hotLockRank order — every observed edge within a chain must
// run low rank -> high rank — and requires the graph to be acyclic
// overall, which also catches inversions the declared table never
// anticipated (cross-chain cycles). Each offending (held, acquired)
// class pair is reported once, at its first witness site; edges observed
// through a call name the callee that takes the inner lock.
func runLockOrder(p *Pass) {
	lg := hotLockGraph(p)
	inPkg := func(pos token.Pos) bool {
		return filepath.Dir(p.Mod.Fset.Position(pos).Filename) == p.Pkg.Dir
	}
	for _, e := range lg.Edges {
		if !inPkg(e.Pos) {
			continue
		}
		from, to := hotLockRank[e.From], hotLockRank[e.To]
		if from.chain != to.chain || from.rank <= to.rank {
			continue
		}
		if e.Via != "" {
			p.Reportf(e.Pos, "call to %s acquires %s lock while holding %s lock; canonical order is %s", e.Via, e.To, e.From, hotLockOrder[to.chain])
			continue
		}
		p.Reportf(e.Pos, "acquires %s lock while holding %s lock; canonical order is %s", e.To, e.From, hotLockOrder[to.chain])
	}
	for _, c := range lg.Cycles() {
		if !inPkg(c.Edges[0].Pos) {
			continue
		}
		// A cycle containing a declared-order inversion is implied by that
		// inversion and already reported above with the sharper message;
		// cycles earn their own report only when every edge looks locally
		// legal (cross-chain loops the declared table never related).
		inverted := false
		for _, e := range c.Edges {
			from, to := hotLockRank[e.From], hotLockRank[e.To]
			if from.chain == to.chain && from.rank > to.rank {
				inverted = true
				break
			}
		}
		if inverted {
			continue
		}
		p.Reportf(c.Edges[0].Pos, "inferred lock-acquisition cycle: %s -> %s; some thread interleaving deadlocks", strings.Join(c.Classes, " -> "), c.Classes[0])
	}
}

// hasMutexField keeps the name-based hot-lock table honest: fixtures
// reuse the real type names, so guard against accidental matches in
// unrelated packages by requiring the type to actually carry a mutex
// field.
func hasMutexField(named *types.Named) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if n, ok := ft.(*types.Named); ok && n.Obj().Pkg() != nil &&
			n.Obj().Pkg().Path() == "sync" && strings.HasSuffix(n.Obj().Name(), "Mutex") {
			return true
		}
	}
	return false
}
