package experiment

import "time"

// Stopwatch starts a timing measurement and returns a function that
// reports the time elapsed since the start. Figure 17's "this-host"
// rows benchmark the real RSA implementation, which is inherently a
// wall-clock measurement; everything else in this package runs on
// simulated time. Injecting the stopwatch through Options keeps that
// single wall-clock dependency in one annotated place and lets tests
// substitute a deterministic fake.
type Stopwatch func() (elapsed func() time.Duration)

// wallStopwatch is the default Stopwatch: Go's monotonic clock.
func wallStopwatch() func() time.Duration {
	start := time.Now() //tlcvet:allow simtime — Fig17 benchmarks real crypto on this host; injectable via Options.Stopwatch
	return func() time.Duration {
		return time.Since(start) //tlcvet:allow simtime — paired with the start read above
	}
}
