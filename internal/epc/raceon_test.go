//go:build race

package epc

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation perturbs allocation counts; the
// testing.AllocsPerRun guards skip themselves under it (verify.sh
// runs them in a separate non-race pass).
const raceEnabled = true
