package main

// Wire-protocol exhaustiveness check. Adding a message type to the wire
// codec takes six coordinated edits; forgetting any one of them compiles
// fine and fails at a distance — frames that won't encode or decode, a
// bandwidth model that can't price the message, a handler that silently
// drops it, or a fuzz/golden hole that lets the layout drift. This
// check cross-references the registered Type* constants against every
// artifact the protocol contract requires: an encode case (a type-switch
// case for the message struct that names its constant) and a decode case
// (a `case TypeX` that constructs the struct) in the codec package, a
// WireSize method on the message struct, a Fuzz<Name> round-trip target
// and a test construction of the struct in the package's _test.go files
// (parsed separately — test files are not part of the loaded package),
// and a dispatch case in the transport's handleMessage type switch
// (which is also where batching/relay frames fan back into the node).
// The codec cases are matched by shape, not by function name, and each
// pairs a struct with its constant, so a case that walks one message
// and returns another's ID is a finding too.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// wireArtifacts is everything the protocol contract cross-references,
// keyed by message name (the Type constant minus its prefix).
type wireArtifacts struct {
	encode   map[string]bool // type-switch `case *X` whose body names TypeX
	decode   map[string]bool // `case TypeX` whose body names X
	wireSize map[string]bool // WireSize method receiver base types
	fuzz     map[string]bool // FuzzX declarations in _test.go files
	built    map[string]bool // X{...} composite literals in _test.go files
	dispatch map[string]bool // handleMessage type-switch case types
}

func runWireProto(p *Pass) {
	blocks := wireTypeBlocks(p.Pkg)
	if len(blocks) == 0 {
		return
	}
	art := collectWireArtifacts(p)
	for _, block := range blocks {
		// A registry no codec switch refers to at all is reported once:
		// staying silent there is how a renamed codec function would turn
		// this whole check off.
		if !art.codecNamesAny(block) {
			p.Reportf(block[0].Pos(), "wire types %s..%s: no switch in the package encodes or decodes any of them; there is no codec to cross-reference",
				block[0].Name, block[len(block)-1].Name)
			continue
		}
		for _, c := range block {
			name := strings.TrimPrefix(c.Name, "Type")
			missing := func(format string, args ...any) {
				p.Reportf(c.Pos(), format, args...)
			}
			if !art.encode[name] {
				missing("wire type %s: no type-switch case for %s names it; the codec cannot encode %s frames", c.Name, name, name)
			}
			if !art.decode[name] {
				missing("wire type %s: no `case %s` constructs %s; received %s frames fail to decode", c.Name, c.Name, name, name)
			}
			if !art.wireSize[name] {
				missing("wire type %s: %s has no WireSize method; the bandwidth model cannot price the frame", c.Name, name)
			}
			if !art.fuzz["Fuzz"+name] {
				missing("wire type %s: no Fuzz%s round-trip target in the package tests; the layout can drift unnoticed", c.Name, name)
			}
			if !art.built[name] {
				missing("wire type %s: the package tests never construct %s; golden/round-trip coverage is missing", c.Name, name)
			}
			if !art.dispatch[name] {
				missing("wire type %s: no handleMessage dispatch case for %s; delivered frames are silently dropped", c.Name, name)
			}
		}
	}
}

func (a *wireArtifacts) codecNamesAny(block []*ast.Ident) bool {
	for _, c := range block {
		name := strings.TrimPrefix(c.Name, "Type")
		if a.encode[name] || a.decode[name] {
			return true
		}
	}
	return false
}

// isWireTypeName reports whether name is a wire type constant's: Type
// followed by the message name.
func isWireTypeName(name string) bool {
	return strings.HasPrefix(name, "Type") && len(name) > len("Type")
}

// wireTypeBlocks finds the registered wire type constants: each const
// block of the package declaring two or more Type*-named constants.
// Matched structurally so the fixture can model a miniature codec.
func wireTypeBlocks(pkg *Package) [][]*ast.Ident {
	var blocks [][]*ast.Ident
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.CONST {
				continue
			}
			var block []*ast.Ident
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if isWireTypeName(name.Name) {
						block = append(block, name)
					}
				}
			}
			if len(block) >= 2 {
				blocks = append(blocks, block)
			}
		}
	}
	return blocks
}

// collectWireArtifacts gathers the protocol artifacts: codec cases from
// the pass's package, WireSize methods and handleMessage dispatch cases
// from every package in the session, and fuzz targets plus test
// constructions from the package directory's _test.go files.
func collectWireArtifacts(p *Pass) *wireArtifacts {
	art := &wireArtifacts{
		wireSize: make(map[string]bool),
		fuzz:     make(map[string]bool),
		built:    make(map[string]bool),
		dispatch: make(map[string]bool),
	}
	art.encode, art.decode = collectCodecCases(p.Pkg)
	for _, pkg := range sessionPkgs(p) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fd.Name.Name == "WireSize" && fd.Recv != nil && len(fd.Recv.List) > 0 {
					if name := baseTypeName(fd.Recv.List[0].Type); name != "" {
						art.wireSize[name] = true
					}
				}
				if fd.Name.Name == "handleMessage" {
					collectTypeSwitchCases(fd.Body, art.dispatch)
				}
			}
		}
	}
	collectWireTests(p.Pkg.Dir, art)
	return art
}

// collectCodecCases finds the codec's two switches wherever in the
// package they are. A type-switch case for struct X that names TypeX
// encodes X; an expression-switch `case TypeX` that names X decodes it.
func collectCodecCases(pkg *Package) (encode, decode map[string]bool) {
	encode, decode = make(map[string]bool), make(map[string]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch sw := n.(type) {
			case *ast.TypeSwitchStmt:
				for _, cc := range caseClauses(sw.Body) {
					named := identsIn(cc.Body)
					for _, expr := range cc.List {
						if name := baseTypeName(expr); name != "" && named["Type"+name] {
							encode[name] = true
						}
					}
				}
			case *ast.SwitchStmt:
				for _, cc := range caseClauses(sw.Body) {
					named := identsIn(cc.Body)
					for _, expr := range cc.List {
						id, ok := expr.(*ast.Ident)
						if !ok || !isWireTypeName(id.Name) {
							continue
						}
						if name := strings.TrimPrefix(id.Name, "Type"); named[name] {
							decode[name] = true
						}
					}
				}
			}
			return true
		})
	}
	return encode, decode
}

func caseClauses(body *ast.BlockStmt) []*ast.CaseClause {
	var out []*ast.CaseClause
	for _, stmt := range body.List {
		if cc, ok := stmt.(*ast.CaseClause); ok {
			out = append(out, cc)
		}
	}
	return out
}

// identsIn is the set of identifier names appearing anywhere in stmts,
// package-qualified names by their selector (athena.Ping -> Ping).
func identsIn(stmts []ast.Stmt) map[string]bool {
	names := make(map[string]bool)
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
	}
	return names
}

// collectTypeSwitchCases records the base type name of every case in
// every type switch under root.
func collectTypeSwitchCases(root ast.Node, sink map[string]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, cc := range caseClauses(ts.Body) {
			for _, expr := range cc.List {
				if name := baseTypeName(expr); name != "" {
					sink[name] = true
				}
			}
		}
		return true
	})
}

// collectWireTests parses the package directory's _test.go files (which
// LoadModule deliberately excludes) for fuzz targets and composite-
// literal constructions of the message structs.
func collectWireTests(dir string, art *wireArtifacts) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				art.fuzz[fd.Name.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || cl.Type == nil {
				return true
			}
			if name := baseTypeName(cl.Type); name != "" {
				art.built[name] = true
			}
			return true
		})
	}
}

// baseTypeName strips pointers, parens, and package qualifiers off a
// type expression: *athena.Heartbeat -> Heartbeat.
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
