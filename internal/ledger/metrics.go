package ledger

import "tlc/internal/metrics"

// Metrics are the ledger instruments, observed inline on the live
// path (same discipline as protocol/session metrics: single atomic
// ops on pre-registered instruments, no locks, no clock reads). The
// simulation-side counterpart — what a *recovered* OFCS re-ingested —
// lives in internal/epc under the two-tier rule.
var Metrics = struct {
	// Appends counts records appended; AppendedBytes their framed
	// size on disk.
	Appends       *metrics.Counter
	AppendedBytes *metrics.Counter
	// Syncs counts fsync barriers issued; Appends/Syncs is the
	// realized group-commit amortisation.
	Syncs *metrics.Counter
	// Rotations counts segment files started (including the fresh
	// segment every Open begins).
	Rotations *metrics.Counter
	// Opens counts replay+repair startups (Open and Reopen).
	Opens *metrics.Counter
	// TornTails counts startups that found a torn record;
	// TruncatedBytes the bytes cut away to restore the verified
	// prefix.
	TornTails      *metrics.Counter
	TruncatedBytes *metrics.Counter
}{
	Appends: metrics.Default.Counter("ledger_appends_total",
		"records appended to the charging ledger"),
	AppendedBytes: metrics.Default.Counter("ledger_appended_bytes_total",
		"framed bytes appended to the charging ledger"),
	Syncs: metrics.Default.Counter("ledger_syncs_total",
		"fsync barriers issued by the charging ledger"),
	Rotations: metrics.Default.Counter("ledger_segment_rotations_total",
		"segment files started by the charging ledger"),
	Opens: metrics.Default.Counter("ledger_opens_total",
		"replay+repair startups of the charging ledger"),
	TornTails: metrics.Default.Counter("ledger_torn_tails_total",
		"startups that truncated a torn record tail"),
	TruncatedBytes: metrics.Default.Counter("ledger_truncated_bytes_total",
		"bytes truncated to restore a verified record prefix"),
}
