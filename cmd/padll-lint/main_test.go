package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes builds the driver and checks the exit-code contract at
// its edges: the removed -fix/-diff/-json/-enable flags are usage errors
// like any other unknown flag, the full suite over a seeded fixture
// reports findings, -list succeeds.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "padll-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-fix", "./..."}, 2, "flag provided but not defined: -fix"},
		{[]string{"-diff", "./..."}, 2, "flag provided but not defined: -diff"},
		{[]string{"-json", "./..."}, 2, "flag provided but not defined: -json"},
		{[]string{"-enable", "errdrop"}, 2, "flag provided but not defined: -enable"},
		{[]string{"-list"}, 0, "errdrop"},
		{[]string{"./internal/lint/testdata/src/errfix"}, 1, "errdrop"},
	} {
		cmd := exec.Command(bin, tc.args...)
		cmd.Dir = "../.." // patterns resolve against the module root
		out, err := cmd.CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("padll-lint %v: exit %d, want %d with %q in output:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}
