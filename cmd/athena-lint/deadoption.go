package main

// Dead-option check. Every exported field of internal/athena's Config and
// ClusterConfig and of the root package's SimNodeConfig is a value
// somebody can set, and so a configuration the goldens and the benchmark
// would have to cover. A field earns that when some non-test file in the
// walk (bench/ included) writes it, as a composite-literal key or the left
// side of an assignment, outside the file that declares its struct; one
// that only its constructor's `if cfg.X <= 0` default writes has one value
// in use and is a constant. A write that only copies another option field
// (NewCluster's or SimNetwork.Build's `X: cfg.X`) counts only if something
// sets the source, so a dead pass-through is reported on both structs at
// once. The three structs are one owner set for that reason, although
// they live in two packages.

import (
	"go/ast"
	"go/types"
)

// optionStructs are the option structs, by package relative to the
// module root. A fixture declares all of them in its one package.
var optionStructs = []struct{ pkg, name string }{
	{"internal/athena", "Config"},
	{"internal/athena", "ClusterConfig"},
	{"", "SimNodeConfig"},
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
		owns := false
		for _, s := range optionStructs {
			owns = owns || s.pkg == p.PkgRel()
		}
		if !owns {
			return
		}
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

// findDeadOptions collects the option fields of optionStructs declared in
// pkgs and marks those some file of pkgs sets.
func findDeadOptions(p *Pass, pkgs []*Package) *deadOptions {
	owner := make(map[*types.Var]string) // exported option field -> its struct
	var fields []*types.Var              // the same, in declaration order
	for _, s := range optionStructs {
		for _, pkg := range pkgs {
			if !pkg.Fixture && p.Mod.Rel(pkg) != s.pkg {
				continue
			}
			tn, _ := pkg.Types.Scope().Lookup(s.name).(*types.TypeName)
			if tn == nil {
				continue
			}
			st, _ := tn.Type().Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					owner[f] = s.name
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
	return &deadOptions{owner: owner, fields: fields, set: set}
}
