package lint

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the driver test: the repository itself must carry
// zero unsuppressed findings, the same contract `make lint` enforces.
func TestRepoIsLintClean(t *testing.T) {
	res, err := Run(repoRoot(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	if res.Packages < 20 {
		t.Errorf("analyzed %d packages, expected the full module (>= 20); pattern expansion regressed", res.Packages)
	}
}

// TestDotDotDotCoversTheSuite pins what "./..." hands the analyzers: the
// go command's expansion must include the suite itself and its driver,
// so `make lint` holds both to their own standards.
func TestDotDotDotCoversTheSuite(t *testing.T) {
	pkgs, root, err := load(repoRoot(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if root != repoRoot(t) {
		t.Errorf("module root %q, want %q", root, repoRoot(t))
	}
	loaded := make(map[string]bool)
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	for _, want := range []string{"padll/internal/lint", "padll/cmd/padll-lint"} {
		if !loaded[want] {
			t.Errorf("./... did not load %s", want)
		}
	}
}

// TestLoadErrorsAreFatal checks that every way a load can fail stops the
// run (padll-lint's exit 2) instead of analyzing less than was asked
// for: a target that does not type-check, an import that does not
// resolve, and a pattern the go command rejects.
func TestLoadErrorsAreFatal(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":        "module example\n\ngo 1.22\n",
		"ok/ok.go":      "package ok\n\nfunc F() int { return 1 }\n",
		"typeerr/a.go":  "package typeerr\n\nvar X int = \"one\"\n",
		"noimport/a.go": "package noimport\n\nimport _ \"example/missing\"\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := Run(dir, []string{"./ok"}); err != nil || res.Packages != 1 {
		t.Fatalf("Run(./ok) = %+v, %v; want one clean package", res, err)
	}
	for pattern, want := range map[string]string{
		"./typeerr":    "cannot use",
		"./noimport":   "example/missing",
		"./nosuchdir":  "directory not found",
		"example/bad[": "malformed import path",
	} {
		res, err := Run(dir, []string{pattern})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run(%s) = %+v, %v; want an error mentioning %q", pattern, res, err, want)
		}
	}
}

// TestNoReflectionWireImports guards the one-wire rule: the frame codec
// is the module's only serialization, so no Go file anywhere — tests and
// lint fixtures included — may import net/rpc or encoding/gob again.
func TestNoReflectionWireImports(t *testing.T) {
	// Spelled in halves so this file passes its own scan (and a plain
	// grep for the quoted import paths prints nothing).
	banned := map[string]bool{"net/" + "rpc": true, "encoding/" + "gob": true}
	err := filepath.WalkDir(repoRoot(t), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if banned[strings.Trim(imp.Path.Value, `"`)] {
				t.Errorf("%s imports %s; the frame codec (internal/rpcio/wirecodec.go) is the only wire", path, imp.Path.Value)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	want := []string{
		"clockcheck", "lockcheck", "errdrop", "printcheck", "leakcheck",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, got[i].Name, name)
		}
		if got[i].Doc == "" {
			t.Errorf("analyzer %q has no Doc", name)
		}
		if a := analyzerByName(name); a != got[i] {
			t.Errorf("analyzerByName(%q) did not return the registered analyzer", name)
		}
	}
	if analyzerByName("nope") != nil {
		t.Error("analyzerByName(\"nope\") should be nil")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "clockcheck", Path: "internal/x/y.go", Line: 12, Col: 7, Message: "boom"}
	if got, want := d.String(), "internal/x/y.go:12:7: clockcheck: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	dirty := &Result{
		Packages: 7,
		Diags:    []Diagnostic{{Analyzer: "printcheck", Path: "b.go", Line: 3, Col: 4, Message: "no printing"}},
	}
	dirty.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "b.go:3:4: printcheck: no printing") {
		t.Errorf("text output missing diagnostic line:\n%s", out)
	}
	if !strings.Contains(out, "7 packages, 1 finding") {
		t.Errorf("text output missing summary:\n%s", out)
	}

	buf.Reset()
	clean := &Result{Packages: 7}
	clean.WriteText(&buf)
	if !strings.Contains(buf.String(), "no findings") {
		t.Errorf("clean run should say so:\n%s", buf.String())
	}
}
