package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// Path is the import path ("padll/internal/stage"). Fixture packages
	// loaded from testdata carry a synthetic path chosen by the caller.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions all files of the package.
	Fset *token.FileSet
	// Files are the non-test Go files, in stable (sorted) order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo carries identifier uses, expression types and selections.
	TypesInfo *types.Info
}

// Loader parses and type-checks packages from source using only the
// standard library. Imports are resolved without any build system:
//
//   - the module path maps to the module root directory,
//   - "unsafe" maps to types.Unsafe,
//   - everything else maps to GOROOT/src/<path>, falling back to
//     GOROOT/src/vendor/<path> for the std vendored dependencies.
//
// cgo is disabled in the build context so the pure-Go variants of std
// packages are selected, exactly as a CGO_ENABLED=0 build would.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod ("padll").
	ModulePath string

	fset   *token.FileSet
	ctxt   build.Context
	goroot string
	// imported caches type-checked packages by import path. A nil entry
	// marks a package currently being checked (import cycle guard).
	imported map[string]*types.Package
	checking map[string]bool
}

// NewLoader builds a loader for the module rooted at moduleRoot.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePathOf(abs)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		ctxt:       ctxt,
		goroot:     runtime.GOROOT(),
		imported:   make(map[string]*types.Package),
		checking:   make(map[string]bool),
	}, nil
}

// modulePathOf reads the module declaration from dir/go.mod.
func modulePathOf(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s/go.mod", dir)
}

// dirFor resolves an import path to a source directory.
func (l *Loader) dirFor(path string) (string, error) {
	switch {
	case path == "C":
		return "", fmt.Errorf("lint: cgo import not supported")
	case path == l.ModulePath:
		return l.ModuleRoot, nil
	case strings.HasPrefix(path, l.ModulePath+"/"):
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/"))), nil
	}
	std := filepath.Join(l.goroot, "src", filepath.FromSlash(path))
	if fi, err := os.Stat(std); err == nil && fi.IsDir() {
		return std, nil
	}
	vendored := filepath.Join(l.goroot, "src", "vendor", filepath.FromSlash(path))
	if fi, err := os.Stat(vendored); err == nil && fi.IsDir() {
		return vendored, nil
	}
	return "", fmt.Errorf("lint: cannot resolve import %q", path)
}

// parseDir parses the buildable non-test Go files of dir.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer, type-checking dependencies from
// source on demand. Results are cached for the loader's lifetime.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.imported[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: parse %s: %w", path, err)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	// Imported (non-target) packages are checked leniently: collect but
	// tolerate errors, keeping whatever partial type information results.
	// Only the packages under analysis are held to a zero-error standard,
	// in LoadDir. This keeps the suite robust against std-library corners
	// (build-tag or toolchain drift) that the analyzers never look at.
	conf := types.Config{
		Importer: l,
		Error:    func(error) {},
	}
	pkg, _ := conf.Check(path, l.fset, files, nil)
	if pkg == nil {
		return nil, fmt.Errorf("lint: type-check %s failed", path)
	}
	l.imported[path] = pkg
	return pkg, nil
}

// LoadDir parses and type-checks the package in dir as an analysis
// target, under the given import path. Unlike Import, type errors are
// fatal: analyzers need complete information about the code they judge.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-check %s: %v", importPath, typeErrs[0])
	}
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-check %s produced no package", importPath)
	}
	// Seed the import cache so later targets importing this package reuse
	// the strict result instead of re-checking from source.
	if _, ok := l.imported[importPath]; !ok {
		l.imported[importPath] = tpkg
	}
	return &Package{
		Path:      importPath,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
