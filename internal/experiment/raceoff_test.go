//go:build !race

package experiment

// raceEnabled: see raceon_test.go.
const raceEnabled = false
