package monitor

import (
	"testing"
	"time"

	"tlc/internal/netem"
	"tlc/internal/ran"
	"tlc/internal/sim"
	"tlc/internal/simclock"
)

// fakeGateway implements GatewayUsage with fixed per-second rates.
type fakeGateway struct {
	ulPerSec, dlPerSec float64
}

func (g fakeGateway) UsageInWindow(_ string, start, end sim.Time) (float64, float64) {
	secs := (end - start).Seconds()
	return g.ulPerSec * secs, g.dlPerSec * secs
}

func fillMeter(s *sim.Scheduler, m *netem.Meter, bytesPerSec int, until time.Duration) {
	s.Ticker(0, time.Second, func(now sim.Time) {
		if now < until {
			m.Recv(&netem.Packet{Size: bytesPerSec})
		}
	})
}

func TestTruth(t *testing.T) {
	s := sim.NewScheduler()
	sent := netem.NewMeter("sent", s, nil)
	recv := netem.NewMeter("recv", s, nil)
	fillMeter(s, sent, 1000, 10*time.Second)
	fillMeter(s, recv, 900, 10*time.Second)
	s.RunUntil(12 * time.Second)
	v := Truth(sent, recv, simclock.Window{Start: 0, End: 10 * time.Second})
	if v.Sent != 10000 || v.Received != 9000 {
		t.Fatalf("truth = %+v", v)
	}
}

func TestEdgeMonitorUplinkView(t *testing.T) {
	s := sim.NewScheduler()
	devSent := netem.NewMeter("dev-sent", s, nil)
	srvRecv := netem.NewMeter("srv-recv", s, nil)
	fillMeter(s, devSent, 1000, 10*time.Second)
	fillMeter(s, srvRecv, 950, 10*time.Second)
	s.RunUntil(12 * time.Second)
	m := &EdgeMonitor{
		Clock:      simclock.New(0, 0),
		DeviceSent: devSent, ServerReceived: srvRecv,
	}
	v := m.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Uplink)
	if v.Sent != 10000 || v.Received != 9500 {
		t.Fatalf("UL view = %+v", v)
	}
}

func TestEdgeMonitorDownlinkViewWithSkew(t *testing.T) {
	s := sim.NewScheduler()
	srvSent := netem.NewMeter("srv-sent", s, nil)
	devRecv := netem.NewMeter("dev-recv", s, nil)
	fillMeter(s, srvSent, 1000, 20*time.Second)
	fillMeter(s, devRecv, 1000, 20*time.Second)
	s.RunUntil(25 * time.Second)
	// A clock running 500ms behind shifts the observed window right:
	// the window [0,10s) becomes [0.5s,10.5s) in true time, which
	// still catches 10 ticks of 1000 bytes (ticks at 1s..10s).
	m := &EdgeMonitor{
		Clock:      simclock.New(-500*time.Millisecond, 0),
		ServerSent: srvSent, DeviceReceived: devRecv,
	}
	v := m.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Downlink)
	if v.Sent != 10000 {
		t.Fatalf("skewed DL sent = %v, want 10000", v.Sent)
	}
	// With a larger skew (1.5s) the window [1.5s,11.5s) catches
	// ticks 2..11: still 10 ticks — but [0,10s) unskewed catches
	// ticks 0..9 (tick at 0 counts 0 bytes? tick at 0 fires at 0).
	// The essential invariant: skew changes *which* traffic is
	// counted, not how much for perfectly uniform traffic.
	m2 := &EdgeMonitor{ServerSent: srvSent, DeviceReceived: devRecv}
	v2 := m2.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Downlink)
	if v2.Sent != 11000 { // ticks at 0..10 fall in [0,10s)? tick 10 at exactly 10s is excluded; 0..9 = 10 ticks + tick at 0 => 10 or 11
		// Accept either quantisation; just require closeness.
		if v2.Sent < 10000 || v2.Sent > 11000 {
			t.Fatalf("unskewed DL sent = %v", v2.Sent)
		}
	}
}

func TestOperatorMonitorUplink(t *testing.T) {
	s := sim.NewScheduler()
	srvIngress := netem.NewMeter("ingress", s, nil)
	fillMeter(s, srvIngress, 900, 10*time.Second)
	s.RunUntil(12 * time.Second)
	m := &OperatorMonitor{
		Clock: simclock.New(0, 0), IMSI: "i",
		Gateway:       fakeGateway{ulPerSec: 1000},
		ServerIngress: srvIngress,
	}
	v := m.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Uplink)
	if v.Sent != 10000 {
		t.Fatalf("UL sent = %v", v.Sent)
	}
	if v.Received != 9000 {
		t.Fatalf("UL received = %v", v.Received)
	}
}

func TestOperatorMonitorUplinkWithoutIngressFallsBackToGateway(t *testing.T) {
	m := &OperatorMonitor{IMSI: "i", Gateway: fakeGateway{ulPerSec: 1000}}
	v := m.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Uplink)
	if v.Received != v.Sent {
		t.Fatalf("fallback view = %+v", v)
	}
}

func TestOperatorMonitorDownlinkViaCounterChecks(t *testing.T) {
	m := &OperatorMonitor{IMSI: "i", Gateway: fakeGateway{dlPerSec: 1000}}
	// Counter checks at t=0 (DL=0) and t=10s (DL=9500): the device
	// received 9500 bytes across the cycle.
	m.OnCounterCheck(ran.CounterCheckRecord{At: 0, DL: 0})
	m.OnCounterCheck(ran.CounterCheckRecord{At: 10 * time.Second, DL: 9500})
	v := m.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Downlink)
	if v.Sent != 10000 {
		t.Fatalf("DL sent = %v", v.Sent)
	}
	if v.Received != 9500 {
		t.Fatalf("DL received = %v, want 9500", v.Received)
	}
	if len(m.checks) != 2 {
		t.Fatalf("%d checks, want 2", len(m.checks))
	}
}

func TestOperatorMonitorDownlinkStaleCheck(t *testing.T) {
	m := &OperatorMonitor{IMSI: "i", Gateway: fakeGateway{dlPerSec: 1000}}
	// The final check happened 2s before cycle end (device went into
	// an outage): the record is stale and under-counts.
	m.OnCounterCheck(ran.CounterCheckRecord{At: 0, DL: 0})
	m.OnCounterCheck(ran.CounterCheckRecord{At: 8 * time.Second, DL: 7600})
	v := m.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Downlink)
	if v.Received != 7600 {
		t.Fatalf("stale DL received = %v, want 7600", v.Received)
	}
}

func TestOperatorMonitorDownlinkNoChecksFallsBack(t *testing.T) {
	m := &OperatorMonitor{IMSI: "i", Gateway: fakeGateway{dlPerSec: 1000}}
	v := m.View(simclock.Window{Start: 0, End: 10 * time.Second}, netem.Downlink)
	// RRC COUNTER CHECK inactive: roll back to the gateway record.
	if v.Received != v.Sent {
		t.Fatalf("fallback DL view = %+v", v)
	}
}

func TestRecordError(t *testing.T) {
	cases := []struct{ est, truth, want float64 }{
		{100, 100, 0},
		{102, 100, 0.02},
		{98, 100, 0.02},
		{5, 0, 0},
	}
	for _, c := range cases {
		if got := RecordError(c.est, c.truth); got != c.want {
			t.Errorf("RecordError(%v,%v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
}
