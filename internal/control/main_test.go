package control

import (
	"testing"

	"padll/internal/leaktest"
)

// TestMain fails the package when its tests pass but leave a goroutine
// behind: a round's workers, a replaced shard's, a stopped loop's.
func TestMain(m *testing.M) { leaktest.Main(m) }
