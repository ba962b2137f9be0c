package control

import "testing"

// TestSteadyRoundAllocsIndependentOfFleetSize: a steady round — every
// collect a delta, every push skipped — allocates the same at 16 stages
// as at 64. The algorithm's own maps are paid once per round whatever
// the fleet, so comparing the two sizes pins the per-member work at
// zero allocations without hard-coding what an algorithm allocates: a
// managed rule that copied its class slice, or a per-member scratch
// buffer, shows as a count that grows with the fleet.
func TestSteadyRoundAllocsIndependentOfFleetSize(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc guards are not meaningful under -race")
	}
	steady := func(n int) float64 {
		ctl := benchFleetLoopback(t, n)
		// The first round pays the full snapshots and the initial
		// pushes; the second warms the buffers those exchanges sized.
		ctl.RunOnce()
		ctl.RunOnce()
		return testing.AllocsPerRun(10, func() { ctl.RunOnce() })
	}
	small, large := steady(16), steady(64)
	t.Logf("steady RunOnce: %.1f allocs/op at 16 stages, %.1f at 64", small, large)
	if small != large {
		t.Errorf("steady RunOnce allocates %.1f/op at 16 stages and %.1f/op at 64: per-member work allocates", small, large)
	}
}
