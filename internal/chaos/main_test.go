package chaos

import (
	"testing"

	"padll/internal/leaktest"
)

// TestMain fails the package when its tests pass but leave a goroutine
// behind: a simulated cluster is single-threaded, so anything left over
// is a round's worker or an in-process exchange's that outlived its run.
func TestMain(m *testing.M) { leaktest.Main(m) }
