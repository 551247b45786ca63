package ran

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RRC message encodings. 3GPP specifies these in ASN.1 PER (TS
// 36.331); the emulation uses an equivalent fixed binary layout so
// that the COUNTER CHECK exchange the operator's charging record
// depends on (§5.4) travels as real bytes that can be captured,
// replayed and inspected, and so its signalling overhead is
// accountable.

// RRCMessageType identifies the downlink/uplink DCCH messages used
// here.
type RRCMessageType uint8

const (
	// RRCCounterCheck: eNodeB → UE, queries the PDCP COUNT values.
	RRCCounterCheck RRCMessageType = 1
	// RRCCounterCheckResponse: UE → eNodeB, reports the counts.
	RRCCounterCheckResponse RRCMessageType = 2
)

// CounterCheckMsg is the eNodeB's query. TransactionID correlates the
// response.
type CounterCheckMsg struct {
	TransactionID uint8
}

// Marshal encodes the message.
func (m CounterCheckMsg) Marshal() []byte {
	return []byte{byte(RRCCounterCheck), m.TransactionID}
}

// CounterCheckResponseMsg carries the modem's cumulative PDCP byte
// counts per direction.
type CounterCheckResponseMsg struct {
	TransactionID uint8
	ULBytes       uint64
	DLBytes       uint64
}

// Marshal encodes the message.
func (m CounterCheckResponseMsg) Marshal() []byte {
	b := make([]byte, 2+16)
	b[0] = byte(RRCCounterCheckResponse)
	b[1] = m.TransactionID
	binary.BigEndian.PutUint64(b[2:10], m.ULBytes)
	binary.BigEndian.PutUint64(b[10:18], m.DLBytes)
	return b
}

// ErrShortRRC reports a truncated RRC message.
var ErrShortRRC = errors.New("ran: short RRC message")

// ParseRRC decodes any supported RRC message; callers type-switch on
// the result.
func ParseRRC(data []byte) (any, error) {
	if len(data) < 2 {
		return nil, ErrShortRRC
	}
	switch RRCMessageType(data[0]) {
	case RRCCounterCheck:
		return CounterCheckMsg{TransactionID: data[1]}, nil
	case RRCCounterCheckResponse:
		if len(data) < 18 {
			return nil, ErrShortRRC
		}
		return CounterCheckResponseMsg{
			TransactionID: data[1],
			ULBytes:       binary.BigEndian.Uint64(data[2:10]),
			DLBytes:       binary.BigEndian.Uint64(data[10:18]),
		}, nil
	default:
		return nil, fmt.Errorf("ran: unknown RRC message type %d", data[0])
	}
}
