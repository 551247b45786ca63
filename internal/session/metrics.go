package session

import "tlc/internal/metrics"

// Metrics are the session-engine instruments, observed inline on the
// live path (same discipline as protocol.Metrics: single atomic ops on
// pre-registered instruments, no locks, no clock reads). The engine
// additionally feeds protocol.Metrics, so a negotiation it settles
// counts exactly like one side of a RunPair settles.
var Metrics = struct {
	// Active is the sessions currently resident on the engine's conns
	// (opened, not yet settled/failed/rejected).
	Active *metrics.Gauge
	// Opened/Settled/Failed count session outcomes; Rejected counts
	// admission-control refusals (MaxSessions resident), which are not
	// Failed — the work was never admitted.
	Opened   *metrics.Counter
	Settled  *metrics.Counter
	Failed   *metrics.Counter
	Rejected *metrics.Counter
	// BatchSize is the distribution of mux frames carried by one write
	// of a conn's writer; mass above 1 is syscalls saved.
	BatchSize *metrics.Histogram
}{
	Active: metrics.Default.Gauge("sessions_active",
		"charging sessions currently resident on the engine's conns"),
	Opened: metrics.Default.Counter("sessions_opened_total",
		"charging sessions admitted into the engine"),
	Settled: metrics.Default.Counter("sessions_settled_total",
		"charging sessions settled with a doubly signed PoC"),
	Failed: metrics.Default.Counter("sessions_failed_total",
		"charging sessions torn down by validation or transport errors"),
	Rejected: metrics.Default.Counter("sessions_rejected_total",
		"sessions refused by admission control (MaxSessions resident)"),
	BatchSize: metrics.Default.Histogram("session_crypto_batch_size",
		"mux frames carried by one flush of a conn's writer",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
}
