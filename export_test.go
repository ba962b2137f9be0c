package padll

import "padll/internal/rpcio"

// The constructors on an injected clock, for package padll_test.
var (
	NewDataPlaneOn    = newDataPlane
	NewControlPlaneOn = newControlPlane
)

// ControllerConn returns the connection the data plane last registered
// on (nil when it is not registered).
func (dp *DataPlane) ControllerConn() *rpcio.ControllerConn { return dp.link.Load() }
