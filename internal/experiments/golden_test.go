package experiments

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimClockCSVsMatchGoldens regenerates every plot table CSVs
// returns — padll-experiments -csv writes the same list — and holds each,
// byte for byte, to the file of the same name under testdata/golden, so a
// change that moves a figure fails here. A missing golden file is written
// from this run, and the test fails once, asking for a rerun; a golden
// file no CSV produces fails too.
func TestSimClockCSVsMatchGoldens(t *testing.T) {
	t.Parallel()
	files, err := CSVs(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	made := map[string]bool{}
	for _, f := range files {
		made[f.Name] = true
		checkGolden(t, f)
	}
	goldens, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if !made[g.Name()] {
			t.Errorf("golden %s has no CSV: delete it or produce it", g.Name())
		}
	}
}

// checkGolden compares f with testdata/golden/<f.Name>, writing the file
// when it does not exist yet, and names the first line that differs.
func checkGolden(t *testing.T, f CSVFile) {
	t.Helper()
	path := filepath.Join("testdata", "golden", f.Name)
	want, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(f.Content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: wrote missing golden %s; rerun the test", f.Name, path)
	case err != nil:
		t.Fatal(err)
	case string(want) != f.Content:
		wl, gl := strings.Split(string(want), "\n"), strings.Split(f.Content, "\n")
		i := 0
		for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "(end of file)"
		}
		t.Errorf("%s differs from %s at line %d:\n  golden   %s\n  this run %s", f.Name, path, i+1, line(wl), line(gl))
	}
}
