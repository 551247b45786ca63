package epc

import (
	"time"

	"tlc/internal/sim"
)

// CDR is a charging data record as emitted by the gateway, mirroring
// the fields of the paper's Trace 1 (an OpenEPC record).
type CDR struct {
	ServedIMSI         string
	GatewayAddress     string
	ChargingID         uint32
	SequenceNumber     uint32
	TimeOfFirstUsage   string
	TimeOfLastUsage    string
	TimeUsage          int64 // seconds
	DataVolumeUplink   uint64
	DataVolumeDownlink uint64
}

// cdrEpoch anchors simulated time to the wall-clock timestamps a
// record carries; the value matches the paper's Trace 1 date.
var cdrEpoch = time.Date(2019, 1, 7, 7, 13, 46, 0, time.UTC)

// FormatCDRTime renders a simulated instant in the gateway's
// "2006-01-02 15:04:05" format.
func FormatCDRTime(t sim.Time) string {
	return cdrEpoch.Add(t).Format("2006-01-02 15:04:05")
}

// LegacyCDRWireSize is the paper's measured size of a plain LTE CDR
// on the wire (Figure 17's overhead table: 34 bytes), the binary
// gateway encoding the overhead analysis uses.
const LegacyCDRWireSize = 34
