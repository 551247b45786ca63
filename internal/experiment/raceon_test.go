//go:build race

package experiment

// raceEnabled reports that this test binary was built with the race
// detector. TestFigureGoldensQuick then skips its sequential pass,
// which gives the detector nothing to check, and keeps the one on two
// sweep workers.
const raceEnabled = true
