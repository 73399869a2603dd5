package main

// Dead-option check. An option struct is any exported struct type of the
// module named Config or ending in Config or Opts (athena.Config,
// ClusterConfig, the root's SimNodeConfig, workload.Config, ...), found
// by that rule rather than listed, so a new one is owned the day it is
// declared. Each exported field of one is a value somebody can set, and
// so a configuration the goldens and the benchmark would have to cover. A
// field earns that when some non-test file in the walk (bench/ included)
// writes it, as a composite-literal key or the left side of an
// assignment, outside the file that declares its struct; one that only
// its constructor's `if cfg.X <= 0` default writes has one value in use
// and is a constant. A write through a nested field sets every option on
// the way: athena-sim's `cfg.Workload.GridRows = 5` sets
// experiment.Config.Workload as well as GridRows. A write that only
// copies another option field (NewCluster's or SimNetwork.Build's
// `X: cfg.X`) counts only if something sets the source, so a dead
// pass-through is reported on both structs at once. All option structs
// are one owner set for that reason, although they live in several
// packages.

import (
	"go/ast"
	"go/types"
	"strings"
)

// isOptionStruct reports whether tn names an option struct.
func isOptionStruct(tn *types.TypeName) bool {
	name := tn.Name()
	if tn.IsAlias() || !tn.Exported() ||
		!(name == "Config" || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts")) {
		return false
	}
	_, ok := tn.Type().Underlying().(*types.Struct)
	return ok
}

// deadOptions is the check's module-wide result: every option field, in
// declaration order, with its struct's name and whether anything sets it.
type deadOptions struct {
	owner  map[*types.Var]string
	fields []*types.Var
	set    map[*types.Var]bool
}

func runDeadOption(p *Pass) {
	var opts *deadOptions
	if p.Pkg.Fixture {
		// Nothing in the module can import a fixture.
		opts = findDeadOptions(p, []*Package{p.Pkg})
	} else {
		const key = "deadoption"
		opts, _ = p.Session.Cache[key].(*deadOptions)
		if opts == nil {
			opts = findDeadOptions(p, p.Mod.Pkgs)
			p.Session.Cache[key] = opts
		}
	}
	for _, f := range opts.fields {
		if f.Pkg() == p.Pkg.Types && !opts.set[f] {
			p.Reportf(f.Pos(), "option %s.%s is set by no non-test file outside the one that declares it: one value in use is a constant — make it one, or keep the field once a caller needs a second value",
				opts.owner[f], f.Name())
		}
	}
}

// findDeadOptions collects the fields of the option structs declared in
// pkgs and marks those some file of pkgs sets.
func findDeadOptions(p *Pass, pkgs []*Package) *deadOptions {
	owner := make(map[*types.Var]string) // exported option field -> its struct
	var fields []*types.Var              // the same, in declaration order
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, _ := scope.Lookup(name).(*types.TypeName)
			if tn == nil || !isOptionStruct(tn) {
				continue
			}
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					owner[f] = name
					fields = append(fields, f)
				}
			}
		}
	}

	set := make(map[*types.Var]bool)            // written with a value of the caller's own
	copies := make(map[*types.Var][]*types.Var) // written with another option field's value
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
			elsewhere := func(f *types.Var) bool {
				return f != nil && p.Mod.Fset.Position(f.Pos()).Filename != here
			}
			write := func(target, value ast.Expr) {
				if f := field(target); elsewhere(f) {
					if src := field(value); src != nil {
						copies[f] = append(copies[f], src)
					} else {
						set[f] = true
					}
				}
				// a.B.C = v writes into a.B: every option on the way is set.
				for sel, ok := target.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
					if f := field(sel.X); elsewhere(f) {
						set[f] = true
					}
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
	return &deadOptions{owner: owner, fields: fields, set: set}
}
