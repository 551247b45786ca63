package epc

import (
	"time"

	"tlc/internal/ledger"
	"tlc/internal/sim"
)

// OFCS is the offline charging system (CDF in 4G, CHF in 5G): it
// collects CDRs from the gateway and aggregates them into
// per-subscriber usage. TLC's loss-selfishness cancellation is
// realised "atop existing charging functions" (§6), so the operator
// side of the negotiation reads its charging record from here.
type OFCS struct {
	cdrs  []*CDR
	usage map[string]*Usage

	// collectedAt stamps when each cdrs[i] arrived, so a crash can
	// roll back exactly the records inside its loss window.
	collectedAt []sim.Time

	// Crash/restart state (component fault injection). While down the
	// OFCS silently discards incoming CDRs — the gateway keeps
	// emitting, the records are simply lost, and the charging policy
	// degrades to whatever survived rather than panicking.
	down              bool
	crashes           int
	lostWhileDown     int
	lostWindowRecords int
	lostBytes         uint64

	// Durable-ledger state (optional). With a ledger attached every
	// collected CDR is also appended to the log, a Crash drops the
	// log's unsynced tail along with the in-memory loss window, and
	// Restart replays the durable records back into the aggregate —
	// LostRecords then counts only the truly-torn tail plus records
	// discarded while down.
	led        *ledger.Ledger
	cycle      uint64
	lossCutoff sim.Time
	recovered  int
	appendErrs int

	published bool
}

// Usage is per-subscriber aggregated usage.
type Usage struct {
	UL      uint64
	DL      uint64
	Records int
}

// NewOFCS returns an empty charging system. The CDR slice is
// pre-sized for a typical cycle (one record per second per session)
// so steady-state collection appends without reallocating.
func NewOFCS() *OFCS {
	return &OFCS{
		cdrs:  make([]*CDR, 0, 128),
		usage: make(map[string]*Usage),
	}
}

// AttachLedger makes the OFCS durable: every collected CDR is also
// appended to led (under cycle as the charging-cycle id), and
// Crash/Restart recover the loss window from the log instead of only
// counting it. Attach before the first CollectAt; the ledger's own
// group-commit options decide the durability window.
func (o *OFCS) AttachLedger(led *ledger.Ledger, cycle uint64) {
	o.led = led
	o.cycle = cycle
}

// Ledger returns the attached ledger, or nil.
func (o *OFCS) Ledger() *ledger.Ledger { return o.led }

// CollectAt ingests one CDR stamped with its arrival time. While the
// OFCS is down (crashed, not yet restarted) the record is counted
// lost and dropped.
func (o *OFCS) CollectAt(c *CDR, now sim.Time) {
	if o.down {
		o.lostWhileDown++
		o.lostBytes += c.DataVolumeUplink + c.DataVolumeDownlink
		return
	}
	o.ingest(c, now)
	if o.led != nil {
		rec := ledger.Record{
			Kind:       ledger.KindCDR,
			Cycle:      o.cycle,
			At:         int64(now),
			Subscriber: c.ServedIMSI,
			Seq:        c.SequenceNumber,
			ChargingID: c.ChargingID,
			TimeUsage:  c.TimeUsage,
			UL:         c.DataVolumeUplink,
			DL:         c.DataVolumeDownlink,
		}
		if err := o.led.Append(&rec); err != nil {
			// The simulation must not die on a storage fault; the
			// record stays in memory and the failure is counted.
			o.appendErrs++
		}
	}
}

// ingest applies one CDR to the in-memory aggregate (no ledger
// append): the shared tail of CollectAt and crash recovery.
func (o *OFCS) ingest(c *CDR, now sim.Time) {
	o.cdrs = append(o.cdrs, c)
	o.collectedAt = append(o.collectedAt, now)
	u, ok := o.usage[c.ServedIMSI]
	if !ok {
		u = &Usage{}
		o.usage[c.ServedIMSI] = u
	}
	u.UL += c.DataVolumeUplink
	u.DL += c.DataVolumeDownlink
	u.Records++
}

// Records returns the number of CDRs collected (the dataset size
// reported in Figure 11c).
func (o *OFCS) Records() int { return len(o.cdrs) }

// Crash simulates the charging collector dying at time now: records
// collected within the trailing lossWindow (not yet durably flushed)
// are rolled out of the aggregate, and the OFCS stops accepting CDRs
// until Restart. Returns how many records were lost from the window.
func (o *OFCS) Crash(now sim.Time, lossWindow time.Duration) int {
	o.down = true
	o.crashes++
	cutoff := now - lossWindow
	o.lossCutoff = cutoff
	if o.led != nil {
		// The process died: whatever the ledger had not fsynced is
		// gone with the page cache.
		o.led.Crash()
	}
	lost := 0
	for len(o.cdrs) > 0 {
		i := len(o.cdrs) - 1
		if o.collectedAt[i] < cutoff {
			break
		}
		c := o.cdrs[i]
		o.cdrs = o.cdrs[:i]
		o.collectedAt = o.collectedAt[:i]
		if u, ok := o.usage[c.ServedIMSI]; ok {
			u.UL -= c.DataVolumeUplink
			u.DL -= c.DataVolumeDownlink
			u.Records--
		}
		o.lostBytes += c.DataVolumeUplink + c.DataVolumeDownlink
		lost++
	}
	o.lostWindowRecords += lost
	return lost
}

// Restart brings a crashed OFCS back: it resumes collecting, with
// whatever records survived the crash as its state. With a ledger
// attached it first replays the log and re-ingests every durable CDR
// from the loss window — the only records still missing afterwards
// are the truly-torn tail (appended but never fsynced before the
// crash) and anything discarded while down. Returns how many records
// the replay brought back.
func (o *OFCS) Restart() int {
	o.down = false
	if o.led == nil {
		return 0
	}
	cutoff, cycle := int64(o.lossCutoff), o.cycle
	recovered := 0
	err := o.led.Reopen(func(rec *ledger.Record) error {
		if rec.Kind != ledger.KindCDR || rec.Cycle != cycle || rec.At < cutoff {
			// Before the cutoff the in-memory aggregate kept the
			// record through the crash; re-ingesting would double
			// count.
			return nil
		}
		c := &CDR{
			ServedIMSI:         rec.Subscriber,
			ChargingID:         rec.ChargingID,
			SequenceNumber:     rec.Seq,
			TimeUsage:          rec.TimeUsage,
			DataVolumeUplink:   rec.UL,
			DataVolumeDownlink: rec.DL,
		}
		o.ingest(c, sim.Time(rec.At))
		recovered++
		return nil
	})
	if err != nil {
		// The log is unusable; the crash degrades to the ledger-less
		// accounting (the loss window stays lost).
		o.appendErrs++
		return 0
	}
	o.recovered += recovered
	o.lostWindowRecords -= recovered
	for _, c := range o.cdrs[len(o.cdrs)-recovered:] {
		o.lostBytes -= c.DataVolumeUplink + c.DataVolumeDownlink
	}
	return recovered
}

// RecoveredRecords returns how many loss-window CDRs ledger replay
// brought back across all restarts.
func (o *OFCS) RecoveredRecords() int { return o.recovered }

// LostWindowRecords returns the loss-window records still missing
// after any ledger recovery: the truly-torn tail.
func (o *OFCS) LostWindowRecords() int { return o.lostWindowRecords }

// Crashes returns how many times the OFCS crashed.
func (o *OFCS) Crashes() int { return o.crashes }

// LostRecords returns CDRs lost to crashes: rolled out of the loss
// window plus discarded while down.
func (o *OFCS) LostRecords() int { return o.lostWindowRecords + o.lostWhileDown }
