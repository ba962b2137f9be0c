package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// The golden tests load seeded-violation fixtures from testdata/src and
// compare the analyzers' findings against `// want `+"`regex`"+` comment
// expectations, the same shape go/analysis uses: every want must be
// matched by a finding on its line, and every finding must be expected.

// sharedLoader is reused across golden tests so the standard library is
// type-checked once per `go test`, not once per fixture.
var sharedLoader *Loader

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(repoRoot(t))
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// wantRx extracts `// want `+"`...`"+` expectations (backtick-quoted
// regexes; several may share one comment).
var wantRx = regexp.MustCompile("want `([^`]+)`")

// runGolden checks one analyzer against one fixture directory.
func runGolden(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	loader := fixtureLoader(t)
	dir := filepath.Join(repoRoot(t), "internal", "lint", "testdata", "src", fixture)
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	diags := analyze(pkg, a)

	// Gather expectations keyed by file:line.
	type want struct {
		rx      *regexp.Regexp
		matched bool
		line    int
	}
	wants := make(map[string][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(c.Text, -1) {
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &want{rx: regexp.MustCompile(m[1]), line: pos.Line})
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Path, d.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched, found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected a finding matching %q, got none", key, w.rx)
			}
		}
	}
}

func TestClockCheckGolden(t *testing.T) {
	runGolden(t, ClockCheck, "clockfix", "padll/internal/lintfixtures/clockfix")
}

func TestLockCheckGolden(t *testing.T) {
	runGolden(t, LockCheck, "lockfix", "padll/internal/lintfixtures/lockfix")
}

func TestErrDropGolden(t *testing.T) {
	runGolden(t, ErrDrop, "errfix", "padll/internal/lintfixtures/errfix")
}

func TestPrintCheckGolden(t *testing.T) {
	// The synthetic import path puts the fixture under internal/, where
	// printcheck applies.
	runGolden(t, PrintCheck, "printfix", "padll/internal/lintfixtures/printfix")
}

func TestLeakCheckGolden(t *testing.T) {
	runGolden(t, LeakCheck, "leakfix", "padll/internal/lintfixtures/leakfix")
}

// TestFixturesSeedViolations guards against silently-passing goldens: a
// fixture with zero findings would "match" an empty want set.
func TestFixturesSeedViolations(t *testing.T) {
	cases := []struct {
		a       *Analyzer
		fixture string
		minimum int
	}{
		{ClockCheck, "clockfix", 5},
		{LockCheck, "lockfix", 6},
		{ErrDrop, "errfix", 4},
		{PrintCheck, "printfix", 4},
		{LeakCheck, "leakfix", 2},
	}
	loader := fixtureLoader(t)
	for _, c := range cases {
		dir := filepath.Join(repoRoot(t), "internal", "lint", "testdata", "src", c.fixture)
		pkg, err := loader.LoadDir(dir, "padll/internal/lintfixtures/"+c.fixture)
		if err != nil {
			t.Fatalf("load fixture %s: %v", c.fixture, err)
		}
		if got := len(analyze(pkg, c.a)); got < c.minimum {
			t.Errorf("%s fixture: %d findings, want at least %d seeded violations", c.a.Name, got, c.minimum)
		}
	}
}
