//go:build race

package rpcio

// raceEnabled gates the AllocsPerRun guards: race instrumentation
// defeats escape analysis and randomizes sync.Pool, so allocation
// counts are not meaningful under -race. `make ci` runs the guard
// packages in plain mode as well, so the guards still gate.
const raceEnabled = true
