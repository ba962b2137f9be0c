package tokenbucket

import (
	"testing"

	"padll/internal/leaktest"
)

// TestMain fails the package when its tests pass but leave a goroutine
// behind: a sleeper that Close did not release.
func TestMain(m *testing.M) { leaktest.Main(m) }
