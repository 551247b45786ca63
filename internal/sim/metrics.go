package sim

import "tlc/internal/metrics"

// Registry instrument for the event engine. The scheduler hot path
// never touches it: Step counts into the scheduler's plain fired
// field, and PublishMetrics flushes the delta at run boundaries.
// Per-event atomic traffic would cost nothing in allocations but would
// put one contended cache line under every parallel sweep worker;
// delta-flushing keeps the hot path untouched and the published
// totals exact.
var (
	mEventsFired = metrics.Default.Counter("sim_events_fired_total",
		"simulator events executed across all published scheduler runs")
	mEventsHeld = metrics.Default.Counter("sim_events_held_total",
		"events in sim_events_fired_total that no heap entry carried: link completions held at transmission start")
)

// PublishMetrics flushes the scheduler's event counters into the
// process metrics registry (the delta since the previous publish, so
// calling it at every run boundary is safe and exact).
func (s *Scheduler) PublishMetrics() {
	fired, held := s.Fired(), s.Held()
	mEventsFired.Add(fired - s.publishedFired)
	mEventsHeld.Add(held - s.publishedHeld)
	s.publishedFired, s.publishedHeld = fired, held
}

// EventsFiredTotal returns the registry's cumulative count of
// executed simulator events (everything flushed by PublishMetrics).
func EventsFiredTotal() uint64 { return mEventsFired.Value() }
