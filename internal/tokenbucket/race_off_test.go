//go:build !race

package tokenbucket

const raceEnabled = false
