// Package lint is PADLL's static-analysis suite. It enforces the
// repository's determinism and concurrency invariants — the properties the
// control plane's correctness rests on and that neither go vet nor the
// compiler know about:
//
//   - clockcheck: time flows through the injected clock.Clock, never
//     directly through time.Now/Sleep/Since or a time-package timer or
//     ticker, so every experiment replays identically against
//     internal/clock's simulated clock.
//   - lockcheck: mutexes are not held across channel operations or
//     blocking calls, and every Lock has an Unlock on every return path.
//   - errdrop: error returns from posix.FileSystem, io.Closer-shaped
//     Close methods, and the rpcio conn layer are never silently dropped.
//   - printcheck: internal/* packages never write to the terminal; only
//     cmd/ and examples/ own stdout.
//   - leakcheck: every go statement in non-test code is tied to a
//     visible shutdown path (sync.WaitGroup, stop channel, or context).
//
// The suite is built purely on the standard library (go/ast, go/parser,
// go/types, go/importer): `go list -deps -export` names the packages a
// pattern matches, their files and the compiler export data of every
// dependency; the matched packages are parsed from source and
// type-checked against that export data. Every analyzer looks at one
// package at a time.
//
// A finding can be suppressed with an explanatory pragma on the offending
// line or the line above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a pragma without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Path is the file path, relative to the module root when possible.
	Path string
	// Line and Col are 1-based.
	Line int
	Col  int
	// Message describes the finding and how to fix or suppress it.
	Message string
}

// String renders the diagnostic in the conventional path:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in output and //lint:allow pragmas.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Path:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ClockCheck,
		LockCheck,
		ErrDrop,
		PrintCheck,
		LeakCheck,
	}
}

// analyzerByName resolves a name; nil if unknown.
func analyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// allowance is one parsed //lint:allow pragma.
type allowance struct {
	analyzer string
	reason   string
	path     string
	line     int
}

// collectAllowances parses every //lint: directive in the package
// through the tolerant parser in pragma.go (whitespace-indented and
// block-comment forms included). Malformed pragmas (no analyzer, no
// reason, an unknown analyzer name, or an unknown directive verb) are
// reported into diags as findings of the "pragma" pseudo-analyzer so
// that typos cannot silently disable a check. Names are validated
// against the full registry, so a golden test running one analyzer does
// not flag the other analyzers' legitimate pragmas.
func collectAllowances(pkg *Package, diags *[]Diagnostic) []allowance {
	report := func(pos token.Pos, msg string) {
		p := pkg.Fset.Position(pos)
		*diags = append(*diags, Diagnostic{
			Analyzer: "pragma", Path: p.Filename, Line: p.Line, Col: p.Column, Message: msg,
		})
	}
	var allows []allowance
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, reason, problem, isAllow := parseAllowPragma(c.Text)
				if !isAllow {
					continue
				}
				if problem != "" {
					report(c.Pos(), problem)
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				allows = append(allows, allowance{
					analyzer: analyzer,
					reason:   reason,
					path:     p.Filename,
					line:     p.Line,
				})
			}
		}
	}
	return allows
}

// suppress filters diags through the allowances: a pragma suppresses its
// analyzer's findings on the pragma's own line and on the line directly
// below it (so it can trail the offending statement or sit above it).
func suppress(diags []Diagnostic, allows []allowance) []Diagnostic {
	if len(allows) == 0 {
		return diags
	}
	type key struct {
		analyzer, path string
		line           int
	}
	allowed := make(map[key]bool)
	for _, a := range allows {
		allowed[key{a.analyzer, a.path, a.line}] = true
		allowed[key{a.analyzer, a.path, a.line + 1}] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if allowed[key{d.Analyzer, d.Path, d.Line}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// inspectFunctions visits every function declaration and literal in the
// file, calling fn with the body and a printable name. Literal bodies are
// visited as independent functions (their statements are not straight-line
// code of the enclosing function).
func inspectFunctions(f *ast.File, fn func(name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Name.Name, d.Body)
			}
		case *ast.FuncLit:
			fn("func literal", d.Body)
		}
		return true
	})
}
