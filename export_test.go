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

// Crash ends the data plane as its process's death would: its
// lifecycle stops without a word, and the connection it registered on
// closes, as the kernel closes a dead process's sockets.
func (dp *DataPlane) Crash() {
	close(dp.loop)
	<-dp.loopDone
	dp.loop = nil
	dp.link.Swap(nil).Close()
}
