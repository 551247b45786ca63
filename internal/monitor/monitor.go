// Package monitor implements TLC's charging-record collection
// (Figure 8): how each party turns raw counters into the usage view
// it brings to the negotiation.
//
//   - Edge vendor, uplink sent: in-app/TrafficStats counter on the
//     device.
//   - Edge vendor, downlink sent: a monitor inside its edge server.
//   - Edge vendor, received volumes: its own app-level counters at
//     the receiving end.
//   - Operator, uplink: the gateway charging function (SPGW meters).
//   - Operator, downlink received: the tamper-resilient RRC COUNTER
//     CHECK procedure (§5.4), aggregated from base-station exchanges.
//
// Record errors arise exactly as in §7.2: each party integrates its
// counters over its *own clock's* view of the charging cycle, and the
// operator's downlink record is additionally quantised to the nearest
// completed COUNTER CHECK.
package monitor

import (
	"sort"
	"time"

	"tlc/internal/core"
	"tlc/internal/netem"
	"tlc/internal/ran"
	"tlc/internal/sim"
	"tlc/internal/simclock"
)

// Truth computes the ground-truth usage pair (x̂e, x̂o) for a cycle
// from the sender-side and receiver-side application meters over the
// true cycle window.
func Truth(sent, received *netem.Meter, w simclock.Window) core.View {
	return core.View{
		Sent:     sent.BytesInWindow(w.Start, w.End),
		Received: received.BytesInWindow(w.Start, w.End),
	}
}

// EdgeMonitor is the edge application vendor's record collection.
type EdgeMonitor struct {
	Clock *simclock.Clock

	// DeviceSent counts uplink bytes at the device app (x̂e for UL).
	DeviceSent *netem.Meter
	// DeviceReceived counts downlink bytes at the device app (the
	// edge's x̂o estimate for DL).
	DeviceReceived *netem.Meter
	// ServerSent counts downlink bytes at the server egress (x̂e for
	// DL).
	ServerSent *netem.Meter
	// ServerReceived counts uplink bytes arriving at the server app
	// (the edge's x̂o estimate for UL).
	ServerReceived *netem.Meter
}

// View returns the edge's negotiation view for the cycle in the given
// direction, metered over the edge clock's (possibly skewed) window.
func (m *EdgeMonitor) View(cycle simclock.Window, dir netem.Direction) core.View {
	w := cycle
	if m.Clock != nil {
		w = m.Clock.ObservedWindow(cycle)
	}
	if dir == netem.Uplink {
		return core.View{
			Sent:     m.DeviceSent.BytesInWindow(w.Start, w.End),
			Received: m.ServerReceived.BytesInWindow(w.Start, w.End),
		}
	}
	return core.View{
		Sent:     m.ServerSent.BytesInWindow(w.Start, w.End),
		Received: m.DeviceReceived.BytesInWindow(w.Start, w.End),
	}
}

// GatewayUsage is the subset of the SPGW the operator monitor needs;
// *epc.SPGW satisfies it.
type GatewayUsage interface {
	UsageInWindow(imsi string, start, end sim.Time) (ul, dl float64)
}

// OperatorMonitor is the cellular operator's record collection.
type OperatorMonitor struct {
	Clock *simclock.Clock
	IMSI  string

	// Gateway provides the metered volumes (UL: ≈x̂e since loss
	// downstream of the gateway dominates; DL: ≈x̂e since metering
	// happens before the air interface).
	Gateway GatewayUsage

	// ServerIngress is the operator's port monitor where the edge
	// server attaches to its infrastructure; it provides the UL
	// received estimate (the edge server is co-located with the
	// core, §7's testbed).
	ServerIngress *netem.Meter

	// checks accumulates completed RRC COUNTER CHECK records.
	checks []ran.CounterCheckRecord
}

// OnCounterCheck ingests a completed COUNTER CHECK exchange; wire it
// to ran.BaseStation.OnCounterCheck.
func (m *OperatorMonitor) OnCounterCheck(rec ran.CounterCheckRecord) {
	if m.checks == nil {
		// A cycle polls every ~10s plus per-release checks; reserve
		// once so the record log appends without reallocating.
		m.checks = make([]ran.CounterCheckRecord, 0, 64)
	}
	m.checks = append(m.checks, rec)
}

// checkSlack tolerates the COUNTER CHECK response latency when
// matching a check to a cycle boundary: the operator sends the check
// at its local boundary and the response snapshot arrives one air
// round-trip later.
const checkSlack = 500 * time.Millisecond

// modemDLAt returns the modem's cumulative downlink counter at the
// most recent COUNTER CHECK at or before t (plus checkSlack); zero if
// none. When the device is unreachable around a
// boundary the record goes stale — the operator-record error source
// of Figure 18.
func (m *OperatorMonitor) modemDLAt(t sim.Time) float64 {
	cutoff := t + checkSlack
	i := sort.Search(len(m.checks), func(i int) bool { return m.checks[i].At > cutoff })
	if i == 0 {
		return 0
	}
	return float64(m.checks[i-1].DL)
}

// View returns the operator's negotiation view for the cycle in the
// given direction, over the operator clock's window.
func (m *OperatorMonitor) View(cycle simclock.Window, dir netem.Direction) core.View {
	w := cycle
	if m.Clock != nil {
		w = m.Clock.ObservedWindow(cycle)
	}
	ul, dl := m.Gateway.UsageInWindow(m.IMSI, w.Start, w.End)
	if dir == netem.Uplink {
		received := ul
		if m.ServerIngress != nil {
			received = m.ServerIngress.BytesInWindow(w.Start, w.End)
		}
		return core.View{Sent: ul, Received: received}
	}
	received := m.modemDLAt(w.End) - m.modemDLAt(w.Start)
	if received < 0 {
		received = 0
	}
	if len(m.checks) == 0 {
		// No counter check completed (e.g. RRC COUNTER CHECK not
		// activated): fall back to the gateway record, the §5.4
		// "roll back to the device APIs" path approximated by the
		// only operator-side record available.
		received = dl
	}
	return core.View{Sent: dl, Received: received}
}

// RecordError quantifies a record against ground truth as the paper's
// Figure 18 error ratio γ = |estimate − truth| / truth (zero when the
// truth is zero).
func RecordError(estimate, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	d := estimate - truth
	if d < 0 {
		d = -d
	}
	return d / truth
}
