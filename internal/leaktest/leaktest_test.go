package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// parkedHere returns the reported goroutines that are blocked inside
// this file's test.
func parkedHere(stacks []string) (out []string) {
	for _, g := range stacks {
		if strings.Contains(g, "leaktest_test.go") && strings.Contains(g, "chan receive") {
			out = append(out, g)
		}
	}
	return out
}

// TestStraysSeesAParkedGoroutineAndItsExit: a goroutine blocked on a
// channel is reported with its stack; once released it is waited out
// rather than reported.
func TestStraysSeesAParkedGoroutineAndItsExit(t *testing.T) {
	release, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		<-release
	}()
	var leaked []string
	for len(leaked) == 0 { // until the goroutine has reached its receive
		runtime.Gosched()
		leaked = parkedHere(strays())
	}
	if len(leaked) != 1 || !strings.Contains(leaked[0], "created by") {
		t.Errorf("strays reported %d goroutines parked in this test, want 1 with its stack:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
	close(release)
	<-exited
	if still := parkedHere(wait(5 * time.Second)); len(still) != 0 {
		t.Errorf("a goroutine that exited is still reported:\n%s", strings.Join(still, "\n\n"))
	}
}
