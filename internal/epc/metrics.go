package epc

import "tlc/internal/metrics"

// Registry instruments for the charging core. Collection and metering
// keep their existing plain counters (one scheduler, no atomics on
// the packet path); PublishMetrics flushes the totals once at a run
// boundary.
var (
	mCDRsEmitted = metrics.Default.Counter("epc_cdrs_emitted_total",
		"CDRs collected by the OFCS")
	mCDRsLost = metrics.Default.Counter("epc_cdrs_lost_total",
		"CDRs lost to OFCS crashes (loss-window rollback plus discarded while down)")
	mCDRBytesLost = metrics.Default.Counter("epc_cdr_bytes_lost_total",
		"charged bytes carried by CDRs lost to OFCS crashes")
	mCDRsRecovered = metrics.Default.Counter("epc_cdrs_recovered_total",
		"loss-window CDRs recovered from the durable ledger on OFCS restart")
	mOFCSCrashes = metrics.Default.Counter("epc_ofcs_crashes_total",
		"OFCS crash fault injections")
	mMeterRestarts = metrics.Default.Counter("epc_meter_restarts_total",
		"SPGW metering-process restarts")
	mMeterBytesLost = metrics.Default.Counter("epc_meter_bytes_lost_total",
		"metered-but-unflushed bytes discarded by SPGW meter restarts")
	mDetachedDrops = metrics.Default.Counter("epc_detached_dropped_packets_total",
		"downlink packets discarded uncharged while the subscriber was detached")
	mDetachedBytes = metrics.Default.Counter("epc_detached_dropped_bytes_total",
		"downlink bytes discarded uncharged while the subscriber was detached")
)

// PublishMetrics flushes the charging system's counters into the
// process metrics registry. Call once at the end of a run; later
// calls are no-ops.
func (o *OFCS) PublishMetrics() {
	if o == nil || o.published {
		return
	}
	o.published = true
	mCDRsEmitted.Add(uint64(len(o.cdrs)))
	mCDRsLost.Add(uint64(o.LostRecords()))
	mCDRBytesLost.Add(o.lostBytes)
	mCDRsRecovered.Add(uint64(o.recovered))
	mOFCSCrashes.Add(uint64(o.crashes))
}

// PublishMetrics flushes the gateway's counters into the process
// metrics registry, once.
func (g *SPGW) PublishMetrics() {
	if g == nil || g.published {
		return
	}
	g.published = true
	mMeterRestarts.Add(uint64(g.restarts))
	mMeterBytesLost.Add(g.restartLostBy)
	var pkts, bytes uint64
	for _, s := range g.sessions {
		pkts += s.droppedDetachedPkts
		bytes += s.droppedDetachedBytes
	}
	mDetachedDrops.Add(pkts)
	mDetachedBytes.Add(bytes)
}
