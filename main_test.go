package padll_test

import (
	"testing"

	"padll/internal/leaktest"
)

// TestMain fails the package when its tests pass but leave a goroutine
// behind: a data plane not closed, a controller or stage server not
// stopped, a registration loop still running.
func TestMain(m *testing.M) { leaktest.Main(m) }
