//go:build race

package tokenbucket

// raceEnabled gates the AllocsPerRun guard on the parked path: race
// instrumentation randomizes sync.Pool, so whether a sleep finds its
// timer pooled is not meaningful under -race. Tier-1 runs the guard in
// plain mode.
const raceEnabled = true
