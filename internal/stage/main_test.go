package stage

import (
	"testing"

	"padll/internal/leaktest"
)

// TestMain fails the package when its tests pass but leave a goroutine
// behind: a request still asleep in a bucket nobody closed.
func TestMain(m *testing.M) { leaktest.Main(m) }
