package main

// Dead-option check. Every exported field of internal/athena's Config and
// ClusterConfig is a value somebody can set, and so a configuration the
// goldens and the benchmark would have to cover. A field earns that when
// some non-test file in the walk (bench/ included) writes it, as a
// composite-literal key or the left side of an assignment, outside the
// file that declares its struct; one that only its constructor's
// `if cfg.X <= 0` default writes has one value in use and is a constant
// (PR 15 found 25 of 77). A write that only copies another option field
// (NewCluster's `X: cfg.X`) counts only if something sets the source, so
// a dead pass-through is reported on both structs at once.

import (
	"go/ast"
	"go/types"
)

func runDeadOption(p *Pass) {
	if !p.Pkg.Fixture && p.PkgRel() != "internal/athena" {
		return
	}
	owner := make(map[*types.Var]string) // exported option field -> its struct
	var fields []*types.Var              // the same, in declaration order
	for _, name := range []string{"Config", "ClusterConfig"} {
		tn, _ := p.Pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if tn == nil {
			continue
		}
		st, _ := tn.Type().Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				owner[f] = name
				fields = append(fields, f)
			}
		}
	}

	set := make(map[*types.Var]bool)            // written with a value of the caller's own
	copies := make(map[*types.Var][]*types.Var) // written with another option field's value
	pkgs := p.Mod.Pkgs
	if p.Pkg.Fixture {
		pkgs = []*Package{p.Pkg} // nothing in the module can import a fixture
	}
	for _, pkg := range pkgs {
		// field resolves a literal key or a selector to the option it names.
		field := func(e ast.Expr) *types.Var {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			id, _ := e.(*ast.Ident)
			f, _ := pkg.Info.Uses[id].(*types.Var)
			if owner[f] == "" {
				return nil
			}
			return f
		}
		for _, file := range pkg.Files {
			here := p.Mod.Fset.Position(file.Pos()).Filename
			write := func(target, value ast.Expr) {
				f := field(target)
				if f == nil || p.Mod.Fset.Position(f.Pos()).Filename == here {
					return
				}
				if src := field(value); src != nil {
					copies[f] = append(copies[f], src)
				} else {
					set[f] = true
				}
			}
			ast.Inspect(file, func(node ast.Node) bool {
				switch n := node.(type) {
				case *ast.KeyValueExpr:
					if _, bare := n.Key.(*ast.Ident); bare {
						write(n.Key, n.Value)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if _, sel := lhs.(*ast.SelectorExpr); sel && len(n.Rhs) == len(n.Lhs) {
							write(lhs, n.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for f, srcs := range copies {
			for _, src := range srcs {
				if set[src] && !set[f] {
					set[f], changed = true, true
				}
			}
		}
	}
	for _, f := range fields {
		if !set[f] {
			p.Reportf(f.Pos(), "option %s.%s is set by no non-test file outside the one that declares it: one value in use is a constant — make it one, or keep the field once a caller needs a second value",
				owner[f], f.Name())
		}
	}
}
