package lint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Result is one suite run over a set of packages.
type Result struct {
	// Diags are the unsuppressed findings, sorted by position.
	Diags []Diagnostic
	// Packages counts the packages analyzed.
	Packages int
}

// Run loads every package matched by patterns (relative to moduleRoot)
// and applies the full suite. Patterns follow the go tool's shape: a
// directory ("./internal/stage") names one package, a "..." suffix
// ("./...", "./internal/...") names every package under it. Directories
// named testdata, hidden directories, and directories without buildable
// non-test Go files are skipped.
func Run(moduleRoot string, patterns []string) (*Result, error) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(moduleRoot, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(dirs)}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir, importPathFor(loader, dir))
		if err != nil {
			return nil, err
		}
		res.Diags = append(res.Diags, analyze(pkg, Analyzers()...)...)
	}
	relativize(moduleRoot, res.Diags)
	sortDiagnostics(res.Diags)
	return res, nil
}

// analyze applies the analyzers to one package and returns the findings
// that package's own pragmas do not suppress, malformed pragmas included.
func analyze(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
	}
	allows := collectAllowances(pkg, &diags)
	return suppress(diags, allows)
}

// importPathFor maps a directory under the module root to its import path.
func importPathFor(l *Loader, dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// relativize rewrites absolute file paths relative to the module root.
func relativize(moduleRoot string, diags []Diagnostic) {
	for i := range diags {
		if rel, err := filepath.Rel(moduleRoot, diags[i].Path); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Path = rel
		}
	}
}

// expandPatterns resolves the package patterns to package directories.
func expandPatterns(moduleRoot string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		}
		if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(moduleRoot, root)
		}
		fi, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			if hasBuildableGo(root) {
				add(root)
			}
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasBuildableGo(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasBuildableGo reports whether dir directly contains a non-test Go file.
func hasBuildableGo(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// WriteText prints findings one per line, plus a summary.
func (r *Result) WriteText(w io.Writer) {
	for _, d := range r.Diags {
		fmt.Fprintln(w, d.String())
	}
	if len(r.Diags) == 0 {
		fmt.Fprintf(w, "padll-lint: %d packages, no findings\n", r.Packages)
	} else {
		fmt.Fprintf(w, "padll-lint: %d packages, %d findings\n", r.Packages, len(r.Diags))
	}
}
