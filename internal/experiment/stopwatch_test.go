package experiment

import (
	"strings"
	"testing"
	"time"
)

// fixedStopwatch returns a Stopwatch whose successive measurements
// report the given durations (cycling when exhausted). Tests use it to
// make the Figure 17 "this-host" rows reproducible.
func fixedStopwatch(durations ...time.Duration) Stopwatch {
	i := 0
	return func() func() time.Duration {
		d := durations[i%len(durations)]
		i++
		return func() time.Duration { return d }
	}
}

func TestFixedStopwatchCycles(t *testing.T) {
	sw := fixedStopwatch(2*time.Millisecond, 5*time.Millisecond)
	for i, want := range []time.Duration{
		2 * time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond,
	} {
		if got := sw()(); got != want {
			t.Fatalf("measurement %d = %v, want %v", i, got, want)
		}
	}
}

// TestFig17DeterministicWithInjectedStopwatch is the point of the
// stopwatch satellite: with the wall-clock probe replaced, Figure 17
// regenerates byte-identically, including its "this-host" rows.
func TestFig17DeterministicWithInjectedStopwatch(t *testing.T) {
	opt := Quick()
	// 50 iterations per measured loop: 100ms and 250ms mean 2ms/5ms
	// per-op figures in the printed table.
	opt.Stopwatch = fixedStopwatch(100*time.Millisecond, 250*time.Millisecond)
	first := Fig17(opt)
	if !strings.Contains(first.Text, "this-host") {
		t.Fatalf("fig17 lost its measured row:\n%s", first.Text)
	}
	if !strings.Contains(first.Text, "2.00") || !strings.Contains(first.Text, "5.00") {
		t.Fatalf("fig17 did not use the injected stopwatch:\n%s", first.Text)
	}
	opt = Quick()
	opt.Stopwatch = fixedStopwatch(100*time.Millisecond, 250*time.Millisecond)
	second := Fig17(opt)
	if first.Text != second.Text {
		t.Errorf("fig17 not reproducible under an injected stopwatch:\n--- first ---\n%s--- second ---\n%s",
			first.Text, second.Text)
	}
}
