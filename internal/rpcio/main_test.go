package rpcio

import (
	"testing"

	"padll/internal/leaktest"
)

// TestMain fails the package when its tests pass but leave a goroutine
// behind: a served listener not stopped, a handle not closed, a killed
// connection whose demux loop never exited.
func TestMain(m *testing.M) { leaktest.Main(m) }
