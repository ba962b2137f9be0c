package monitor

import (
	"testing"

	"padll/internal/leaktest"
)

// TestMain fails the package when its tests pass but leave a goroutine
// behind: a test server not closed, a controller loop not stopped.
func TestMain(m *testing.M) { leaktest.Main(m) }
