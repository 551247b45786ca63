// Package simclock models the per-party wall clocks of the cellular
// operator and edge application vendor.
//
// TLC requires both parties to agree on the charging cycle boundaries
// (Table 1: T = (Tstart, Tend)), synchronised "e.g. via NTP" (§4). Real
// clocks are never perfectly aligned, and the paper attributes the
// residual charging-record errors of Figure 18 to "the asynchronous
// charging cycle start/end". This package reproduces that mechanism:
// each party's clock carries an offset and drift relative to simulated
// true time, an NTP-style sync model draws the offset, and the window
// a party actually meters is the true cycle window shifted by the
// party's offset at the boundary instants.
package simclock

import (
	"time"

	"tlc/internal/sim"
)

// Clock is one party's wall clock. Local time = true time + offset +
// drift accumulated since true time zero.
type Clock struct {
	offset   time.Duration // offset at true time zero
	driftPPM float64       // parts-per-million frequency error
}

// New returns a clock with the given initial offset and drift.
func New(offset time.Duration, driftPPM float64) *Clock {
	return &Clock{offset: offset, driftPPM: driftPPM}
}

// OffsetAt returns the clock's total offset from true time at the
// given true instant, including accumulated drift.
func (c *Clock) OffsetAt(now sim.Time) time.Duration {
	drift := time.Duration(float64(now) * c.driftPPM / 1e6)
	return c.offset + drift
}

// Window is a half-open metering interval in true simulated time.
type Window struct {
	Start sim.Time
	End   sim.Time
}

// ObservedWindow returns the true-time interval this party actually
// meters when it intends to meter the true cycle window w: the party
// starts and stops when its *local* clock reads w.Start and w.End, so
// the true interval is shifted by the clock offset at each boundary.
func (c *Clock) ObservedWindow(w Window) Window {
	return Window{
		Start: w.Start - c.OffsetAt(w.Start),
		End:   w.End - c.OffsetAt(w.End),
	}
}

// SyncModel draws NTP residual offsets for a population of clocks.
type SyncModel struct {
	// Precision is the standard deviation of the residual offset
	// after a sync. Public NTP over the internet is typically in the
	// 1-50ms range; the LTE testbed's edge server syncs locally.
	Precision time.Duration
	rng       *sim.RNG
}

// NewSyncModel returns a model drawing residuals from N(0, precision).
func NewSyncModel(precision time.Duration, rng *sim.RNG) *SyncModel {
	return &SyncModel{Precision: precision, rng: rng}
}

// Residual draws one post-sync residual offset.
func (m *SyncModel) Residual() time.Duration {
	if m.Precision <= 0 {
		return 0
	}
	return time.Duration(m.rng.Norm(0, float64(m.Precision)))
}
