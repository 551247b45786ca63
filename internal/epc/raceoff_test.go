//go:build !race

package epc

// raceEnabled: see raceon_test.go.
const raceEnabled = false
