//go:build !race

package rpcio

const raceEnabled = false
