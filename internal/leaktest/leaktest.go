// Package leaktest is the goroutine-leak assertion a package's TestMain
// runs after its tests: every goroutine a test started — a round's
// workers, a connection's demux loop, a server's accept loop — must be
// gone once the test's own cleanup has run. The static leakcheck
// analyzer asks that every `go` statement has a join point; this asks
// that the join actually happened. Imported by _test.go files only.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"padll/internal/clock"
)

// grace is how long a goroutine that is already on its way out (a demux
// loop whose socket was just closed, a handler unwinding) gets to
// finish before it counts as leaked.
const grace = 5 * time.Second

// Main runs the package's tests and fails the run when they pass but
// leave goroutines behind, printing each leaked goroutine's stack.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := wait(grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leaktest: %d goroutine(s) outlived the package's tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls until no goroutine of the tests' making is left or d has
// passed, and returns the stacks of those that remain.
func wait(d time.Duration) []string {
	var leaked []string
	for pause := time.Millisecond; ; pause *= 2 {
		if leaked = strays(); len(leaked) == 0 || d <= 0 {
			return leaked
		}
		clock.NewReal().Sleep(pause)
		d -= pause
	}
}

// strays returns the stack of every goroutine other than the caller's
// and the runtime's and testing package's own.
func strays() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The first stanza is the calling goroutine.
	for _, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n")[1:] {
		if !benign(g) {
			out = append(out, g)
		}
	}
	return out
}

// benign reports whether a goroutine belongs to the runtime or the
// testing harness rather than to a test.
func benign(stack string) bool {
	for _, own := range []string{
		"testing.(*M).",  // the main goroutine's callers, if Main runs off it
		"os/signal.loop", // signal delivery, started on first Notify
		"os/signal.signal_recv",
		"runtime.ensureSigM",
		"runtime.ReadTrace", // -trace
		"runtime/pprof.",    // -cpuprofile writer
	} {
		if strings.Contains(stack, own) {
			return true
		}
	}
	return false
}
