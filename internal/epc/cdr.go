package epc

// CDR is a charging data record as emitted by the gateway, mirroring
// the fields of the paper's Trace 1 (an OpenEPC record) that the
// charging path reads.
type CDR struct {
	ServedIMSI         string
	ChargingID         uint32
	SequenceNumber     uint32
	TimeUsage          int64 // seconds
	DataVolumeUplink   uint64
	DataVolumeDownlink uint64
}
