//go:build race

package control

// raceEnabled gates the AllocsPerRun guard: race instrumentation
// defeats escape analysis and randomizes sync.Pool, so allocation
// counts are not meaningful under -race. `make ci` runs this package in
// plain mode as well, so the guard still gates.
const raceEnabled = true
