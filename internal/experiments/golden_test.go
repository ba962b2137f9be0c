package experiments

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"padll/internal/posix"
)

// TestSimClockCSVsMatchGoldens regenerates every plot table that runs on
// the simulated clock — Fig. 1, the five Fig. 4 panels, the four Fig. 5
// setups and E7.1 — and holds each, byte for byte, to the file of the
// same name under testdata/golden, so a change that moves a figure fails
// here. A missing golden file is written from this run, and the test
// fails once, asking for a rerun. Fig. 4's data panels run on the real
// clock and have no golden.
func TestSimClockCSVsMatchGoldens(t *testing.T) {
	files := []CSVFile{Fig1(DefaultSeed).CSV()}
	for _, op := range []posix.Op{posix.OpOpen, posix.OpClose, posix.OpGetAttr, posix.OpRename} {
		files = append(files, Fig4PerOp(DefaultSeed, op).CSV())
	}
	files = append(files, Fig4PerClass(DefaultSeed).CSV())
	for _, r := range Fig5All(DefaultSeed) {
		files = append(files, r.CSV())
	}
	files = append(files, ChaosReplay(DefaultSeed).CSV())
	for _, f := range files {
		checkGolden(t, f)
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
