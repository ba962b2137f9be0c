package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// Path is the import path ("padll/internal/stage").
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

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
	Module     *struct{ Dir string }
}

// load asks the go command, run in dir, for the packages patterns match
// and the compiler export data of everything they import, then parses
// each matched package from source and type-checks it against that
// export data. It returns the packages and the root of the module the
// first one belongs to (dir when it belongs to none). A go list failure
// or a type error in a matched package is an error: analyzers need
// complete information about the code they judge.
func load(dir string, patterns []string) ([]*Package, string, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error,Module"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("lint: go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var targets []listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, "", fmt.Errorf("lint: go list output: %w", err)
		}
		if p.Error != nil {
			return nil, "", fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		// A directory of test files alone has nothing to analyze.
		if !p.DepOnly && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}

	root := dir
	if len(targets) > 0 && targets[0].Module != nil {
		root = targets[0].Module.Dir
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, "", err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, root, nil
}

// check parses one listed package's files and type-checks them strictly.
func check(fset *token.FileSet, imp types.Importer, p listed) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", p.ImportPath, err)
	}
	return &Package{
		Path:      p.ImportPath,
		Dir:       p.Dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
