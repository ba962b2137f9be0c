package lint

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Result is one suite run over a set of packages.
type Result struct {
	// Diags are the unsuppressed findings, sorted by position.
	Diags []Diagnostic
	// Packages counts the packages analyzed.
	Packages int
}

// Run lists the packages patterns match, with the go command run in
// dir (so "./..." and the rest of the go command's pattern syntax mean
// what they mean to go build, testdata and test-only directories
// excluded), and applies the full suite to each.
func Run(dir string, patterns []string) (*Result, error) {
	pkgs, root, err := load(dir, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		res.Diags = append(res.Diags, analyze(pkg, Analyzers()...)...)
	}
	relativize(root, res.Diags)
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

// relativize rewrites absolute file paths relative to the module root.
func relativize(moduleRoot string, diags []Diagnostic) {
	for i := range diags {
		if rel, err := filepath.Rel(moduleRoot, diags[i].Path); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Path = rel
		}
	}
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
