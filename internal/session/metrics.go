package session

import "tlc/internal/metrics"

// Metrics are the session-engine instruments, observed inline on the
// live path (same discipline as protocol.Metrics: single atomic ops on
// pre-registered instruments, no locks, no clock reads). The engine
// additionally feeds protocol.Metrics, so a negotiation it settles
// counts exactly like one Party.Run or RunPair settles.
var Metrics = struct {
	// Active is the sessions currently resident in the shard tables
	// (opened, not yet settled/failed/rejected).
	Active *metrics.Gauge
	// Opened/Settled/Failed count session outcomes; Rejected counts
	// admission-control refusals (shard table or pending queue full),
	// which are not Failed — the work was never admitted.
	Opened   *metrics.Counter
	Settled  *metrics.Counter
	Failed   *metrics.Counter
	Rejected *metrics.Counter
	// Backpressure counts frames dropped because an already-admitted
	// session's shard queue was full; the session is failed rather
	// than the queue grown.
	Backpressure *metrics.Counter
	// BatchSize is the distribution of per-shard batch sizes drained
	// by crypto workers; mass above 1 is scheduling amortisation won.
	BatchSize *metrics.Histogram
	// StaleEvicted counts sessions evicted by the dispatch alias guard:
	// a resident session whose conn id was reused by a newer connection
	// before the dead conn's teardown sweep ran. Nonzero means conn ids
	// are being recycled under live sessions — worth alarming on.
	StaleEvicted *metrics.Counter
}{
	Active: metrics.Default.Gauge("sessions_active",
		"charging sessions currently resident in the engine's shard tables"),
	Opened: metrics.Default.Counter("sessions_opened_total",
		"charging sessions admitted into the engine"),
	Settled: metrics.Default.Counter("sessions_settled_total",
		"charging sessions settled with a doubly signed PoC"),
	Failed: metrics.Default.Counter("sessions_failed_total",
		"charging sessions torn down by validation or transport errors"),
	Rejected: metrics.Default.Counter("sessions_rejected_total",
		"sessions refused by admission control (shard table or queue full)"),
	Backpressure: metrics.Default.Counter("session_backpressure_total",
		"frames dropped because an admitted session's shard queue was full"),
	StaleEvicted: metrics.Default.Counter("sessions_stale_evicted_total",
		"stale sessions evicted because their conn id was reused by a newer connection"),
	BatchSize: metrics.Default.Histogram("session_crypto_batch_size",
		"sessions advanced per crypto-worker shard drain",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
}
