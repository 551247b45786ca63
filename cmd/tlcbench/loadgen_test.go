package main

import "testing"

// TestBaselineLoadgen runs the one-conn-per-session baseline with
// several client workers, so concurrent accept handlers and workers
// each negotiate over real TCP at once; under -race it checks that
// they share no unsynchronised state.
func TestBaselineLoadgen(t *testing.T) {
	p, err := lgSetup()
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	run, err := lgBaselineRun(p, sessions, 3)
	if err != nil {
		t.Fatal(err)
	}
	if run.Settled != sessions || run.Failed != 0 {
		t.Fatalf("settled %d, failed %d of %d sessions", run.Settled, run.Failed, sessions)
	}
}
