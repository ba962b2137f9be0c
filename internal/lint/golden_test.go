package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// The golden tests load seeded-violation fixtures from testdata/src and
// compare the analyzers' findings against `// want `+"`regex`"+` comment
// expectations, the same shape go/analysis uses: every want must be
// matched by a finding on its line, and every finding must be expected.

var (
	fixturesOnce sync.Once
	fixtures     map[string]*Package
	fixturesErr  error
)

// fixture returns the seeded-violation package testdata/src/<name>. One
// go list call per `go test` loads all of them, under their real import
// paths (padll/internal/lint/testdata/src/<name>), so printcheck applies
// to them as to any package under internal/.
func fixture(t *testing.T, name string) *Package {
	t.Helper()
	fixturesOnce.Do(func() {
		var pkgs []*Package
		pkgs, _, fixturesErr = load(repoRoot(t), []string{"./internal/lint/testdata/src/..."})
		fixtures = make(map[string]*Package)
		for _, p := range pkgs {
			fixtures[filepath.Base(p.Dir)] = p
		}
	})
	if fixturesErr != nil {
		t.Fatalf("load fixtures: %v", fixturesErr)
	}
	pkg := fixtures[name]
	if pkg == nil {
		t.Fatalf("fixture %s not loaded", name)
	}
	return pkg
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
func runGolden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg := fixture(t, name)
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
	runGolden(t, ClockCheck, "clockfix")
}

func TestLockCheckGolden(t *testing.T) {
	runGolden(t, LockCheck, "lockfix")
}

func TestErrDropGolden(t *testing.T) {
	runGolden(t, ErrDrop, "errfix")
}

func TestPrintCheckGolden(t *testing.T) {
	runGolden(t, PrintCheck, "printfix")
}

func TestLeakCheckGolden(t *testing.T) {
	runGolden(t, LeakCheck, "leakfix")
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
	for _, c := range cases {
		if got := len(analyze(fixture(t, c.fixture), c.a)); got < c.minimum {
			t.Errorf("%s fixture: %d findings, want at least %d seeded violations", c.a.Name, got, c.minimum)
		}
	}
}
