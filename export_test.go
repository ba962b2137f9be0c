package padll

// The constructors on an injected clock, for package padll_test.
var (
	NewDataPlaneOn    = newDataPlane
	NewControlPlaneOn = newControlPlane
)
