package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the cross-package view the second-generation analyzers
// (atomiccheck, hotpathcheck) run against. The original suite was
// strictly package-at-a-time; the hot-path invariant crosses package
// boundaries (stage.Enforce calls into metrics and tokenbucket), so the
// framework now keeps every loaded package plus a per-package
// function-fact index — the suite's equivalent of export data. Packages
// named by the run's patterns are loaded eagerly; packages reached only
// through the call graph are loaded lazily through the same Loader.
type Program struct {
	loader *Loader
	pkgs   map[string]*Package // by import path
	order  []string            // insertion order, for deterministic walks

	// funcIndex maps package path -> types.Func full name -> fact. Keyed
	// by name, not object identity: a package type-checked both as an
	// import (lenient) and as a target (strict) yields distinct object
	// universes, and callee references may resolve into either.
	funcIndex map[string]map[string]*funcFact

	// failed records import paths that could not be lazily loaded, so
	// one broken dependency is not re-parsed per call site.
	failed map[string]bool
}

// funcFact is the per-function export data: where the function lives,
// its body, and its hotpath/coldpath annotations.
type funcFact struct {
	pkg  *Package
	decl *ast.FuncDecl
	ann  funcAnnotations
}

// newProgram indexes the given packages. loader may be nil (fixture
// runs), in which case cross-package facts are limited to pkgs.
func newProgram(loader *Loader, pkgs ...*Package) *Program {
	p := &Program{
		loader:    loader,
		pkgs:      make(map[string]*Package),
		funcIndex: make(map[string]map[string]*funcFact),
		failed:    make(map[string]bool),
	}
	for _, pkg := range pkgs {
		p.add(pkg)
	}
	return p
}

// add indexes one package's function declarations.
func (p *Program) add(pkg *Package) {
	if _, ok := p.pkgs[pkg.Path]; ok {
		return
	}
	p.pkgs[pkg.Path] = pkg
	p.order = append(p.order, pkg.Path)
	idx := make(map[string]*funcFact)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := &funcFact{pkg: pkg, decl: fd}
			if fd.Doc != nil {
				lines := make([]string, 0, len(fd.Doc.List))
				for _, c := range fd.Doc.List {
					lines = append(lines, c.Text)
				}
				fact.ann = parseFuncAnnotations(lines)
			}
			idx[obj.FullName()] = fact
		}
	}
	p.funcIndex[pkg.Path] = idx
}

// packages returns every loaded package in deterministic order.
func (p *Program) packages() []*Package {
	out := make([]*Package, 0, len(p.order))
	for _, path := range p.order {
		out = append(out, p.pkgs[path])
	}
	return out
}

// ensurePackage returns the package at importPath, lazily loading
// module-local packages through the program's loader. nil when the
// path is outside the module, the program has no loader, or the load
// failed (the analyzers then treat the callee as opaque).
func (p *Program) ensurePackage(importPath string) *Package {
	if pkg, ok := p.pkgs[importPath]; ok {
		return pkg
	}
	if p.loader == nil || p.failed[importPath] {
		return nil
	}
	if importPath != p.loader.ModulePath &&
		!strings.HasPrefix(importPath, p.loader.ModulePath+"/") {
		return nil
	}
	dir, err := p.loader.dirFor(importPath)
	if err != nil {
		p.failed[importPath] = true
		return nil
	}
	pkg, err := p.loader.LoadDir(dir, importPath)
	if err != nil {
		p.failed[importPath] = true
		return nil
	}
	p.add(pkg)
	return pkg
}

// fact resolves a function object (from any type-check universe) to
// its declaration fact, or nil when the function is not module-local
// source the program can see (stdlib, interface methods, failures).
func (p *Program) fact(fn *types.Func) *funcFact {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	if p.ensurePackage(path) == nil {
		return nil
	}
	return p.funcIndex[path][fn.FullName()]
}

// calleeFact resolves a call expression to the fact of its statically
// known callee: a package-level function or a concrete method. Calls
// through interfaces and function values return nil — the hot-path
// analysis treats them as opaque (the repo's interface calls on the
// hot path are clock reads, deliberately outside the static contract).
func calleeFact(pkg *Package, prog *Program, call *ast.CallExpr) *funcFact {
	fn := staticCallee(pkg, call)
	if fn == nil || prog == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			return nil
		}
	}
	return prog.fact(fn)
}

// staticCallee resolves the called *types.Func, or nil for indirect
// calls through function values.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := pkg.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pkg.TypesInfo.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// suppressProgram filters diags through the allowances of every loaded
// package: cross-package analyzers report findings in files outside
// the package under analysis (a hot path's allocation in a callee
// package), and the pragma that
// justifies such a finding lives next to the finding, not next to the
// analysis root.
func suppressProgram(prog *Program, diags []Diagnostic, extraAllows []allowance) []Diagnostic {
	var allows []allowance
	allows = append(allows, extraAllows...)
	for _, pkg := range prog.packages() {
		// Malformed pragmas were already reported when the package was
		// analyzed as a target; for lazily loaded packages they are the
		// owning package's findings, reported when it is a target.
		allows = append(allows, collectAllowances(pkg, nil)...)
	}
	return suppress(diags, allows)
}

// dedupe drops exact-position duplicates of the same analyzer: two
// hot-path roots reaching one allocation site are one finding to fix.
func dedupe(diags []Diagnostic) []Diagnostic {
	type key struct {
		analyzer, path string
		line, col      int
	}
	seen := make(map[key]bool, len(diags))
	kept := diags[:0]
	for _, d := range diags {
		k := key{d.Analyzer, d.Path, d.Line, d.Col}
		if seen[k] {
			continue
		}
		seen[k] = true
		kept = append(kept, d)
	}
	return kept
}

// sortedKeys is a small helper for deterministic map walks.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
