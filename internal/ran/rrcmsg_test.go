package ran

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"tlc/internal/sim"
)

func TestCounterCheckMsgRoundTrip(t *testing.T) {
	m := CounterCheckMsg{TransactionID: 42}
	got, err := ParseRRC(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.(CounterCheckMsg) != m {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestCounterCheckResponseRoundTrip(t *testing.T) {
	m := CounterCheckResponseMsg{TransactionID: 7, ULBytes: 274841, DLBytes: 33604032}
	got, err := ParseRRC(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.(CounterCheckResponseMsg) != m {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestCounterCheckResponseRoundTripProperty(t *testing.T) {
	f := func(txn uint8, ul, dl uint64) bool {
		m := CounterCheckResponseMsg{TransactionID: txn, ULBytes: ul, DLBytes: dl}
		got, err := ParseRRC(m.Marshal())
		return err == nil && got.(CounterCheckResponseMsg) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionReleaseRoundTrip(t *testing.T) {
	m := ConnectionReleaseMsg{Cause: 3}
	got, err := ParseRRC(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.(ConnectionReleaseMsg) != m {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestParseRRCErrors(t *testing.T) {
	if _, err := ParseRRC(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := ParseRRC([]byte{byte(RRCCounterCheck)}); err == nil {
		t.Fatal("one-byte message accepted")
	}
	if _, err := ParseRRC([]byte{99, 0}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Truncated response.
	if _, err := ParseRRC([]byte{byte(RRCCounterCheckResponse), 1, 2, 3}); err == nil {
		t.Fatal("truncated response accepted")
	}
}

// Marshal encodes the message. The base station releases without
// sending one; TestConnectionReleaseRoundTrip checks ParseRRC on it.
func (m ConnectionReleaseMsg) Marshal() []byte {
	return []byte{byte(RRCConnectionRelease), m.Cause}
}

// String implements fmt.Stringer. No binary prints a message type;
// TestRRCMessageTypeString checks it.
func (t RRCMessageType) String() string {
	switch t {
	case RRCCounterCheck:
		return "CounterCheck"
	case RRCCounterCheckResponse:
		return "CounterCheckResponse"
	case RRCConnectionRelease:
		return "ConnectionRelease"
	default:
		return fmt.Sprintf("RRCMessageType(%d)", uint8(t))
	}
}

func TestRRCMessageTypeString(t *testing.T) {
	if RRCCounterCheck.String() != "CounterCheck" ||
		RRCCounterCheckResponse.String() != "CounterCheckResponse" ||
		RRCConnectionRelease.String() != "ConnectionRelease" {
		t.Fatal("type strings wrong")
	}
	if RRCMessageType(99).String() != "RRCMessageType(99)" {
		t.Fatal("unknown type string wrong")
	}
}

func TestBaseStationSignallingAccounting(t *testing.T) {
	s := sim.NewScheduler()
	r := NewRadio(s, ConstantRSS(-90))
	r.Start()
	bs := NewBaseStation(s, r, &fakeModem{ul: 5, dl: 10})
	bs.InactivityRelease = 3 * time.Second
	got := 0
	bs.OnCounterCheck = func(rec CounterCheckRecord) {
		got++
		if rec.UL != 5 || rec.DL != 10 {
			t.Errorf("counts via RRC codec = %d/%d", rec.UL, rec.DL)
		}
	}
	bs.Start()
	s.At(time.Second, func() { bs.NotifyActivity(s.Now()) })
	s.RunUntil(10 * time.Second)
	if got != 1 {
		t.Fatalf("counter checks completed = %d", got)
	}
}
