package epc

import (
	"testing"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

func TestPolicerPassesUntilThrottled(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	p := NewPolicer(s, sink)
	src := &netem.TrafficSource{Sched: s, IDs: &netem.IDGen{}, Dst: p,
		Flow: "f", RateBps: 10e6, PacketSize: 1400}
	src.Start(0)
	s.RunUntil(2 * time.Second)
	src.Stop()
	if p.Dropped != 0 || sink.Bytes == 0 {
		t.Fatalf("inactive policer dropped %d", p.Dropped)
	}
}

func TestPolicerEnforcesRate(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	p := NewPolicer(s, sink)
	src := &netem.TrafficSource{Sched: s, IDs: &netem.IDGen{}, Dst: p,
		Flow: "f", RateBps: 10e6, PacketSize: 1400}
	// Throttle to 128Kbps (the §2.1 plan) from the start.
	p.Throttle(128e3)
	src.Start(0)
	s.RunUntil(20 * time.Second)
	src.Stop()
	// Delivered rate ≈ 128Kbps (+ the initial burst allowance).
	gotBps := float64(sink.Bytes) * 8 / 20
	if gotBps > 200e3 || gotBps < 100e3 {
		t.Fatalf("throttled rate = %.0f bps, want ~128K", gotBps)
	}
	if p.Dropped == 0 {
		t.Fatal("no policer drops at 10Mbps offered vs 128Kbps limit")
	}
}

func TestPolicerRelease(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	p := NewPolicer(s, sink)
	p.Throttle(1)
	if !p.Active() {
		t.Fatal("not active after Throttle")
	}
	p.Release()
	if p.Active() {
		t.Fatal("active after Release")
	}
	p.Recv(&netem.Packet{Size: 1 << 20})
	if sink.Packets != 1 {
		t.Fatal("released policer dropped")
	}
}

func TestPolicerSkipsBackground(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	p := NewPolicer(s, sink)
	p.Throttle(1) // effectively zero rate
	p.Recv(&netem.Packet{Size: 1400, Background: true})
	if sink.Packets != 1 {
		t.Fatal("background traffic policed")
	}
}

func TestQuotaToThrottleEndToEnd(t *testing.T) {
	// OFCS quota → policer throttle, the §2.1 "unlimited" plan: the
	// subscriber's own traffic collapses to the limit after the
	// quota, and the policed traffic is never charged.
	s := sim.NewScheduler()
	mme := NewMME(s)
	mme.Attach("imsi1")
	gw := NewSPGW(s, "10.0.0.1", mme, NewPCRF())
	ofcs := NewOFCS()
	gw.OFCS = ofcs
	ofcs.SetPlan(Plan{CycleStart: 0, CycleEnd: time.Hour, C: 0.5,
		QuotaBytes: 2_000_000, ThrottleBps: 128e3})
	sink := &netem.Sink{}
	gw.ULNext = sink
	policer := NewPolicer(s, gw.ULNode())
	ofcs.OnQuotaExceeded = func(imsi string, usage uint64) {
		policer.Throttle(128e3)
	}
	gw.Start()
	src := &netem.TrafficSource{Sched: s, IDs: &netem.IDGen{}, Dst: policer,
		Flow: "f", IMSI: "imsi1", Dir: netem.Uplink, RateBps: 8e6, PacketSize: 1400}
	src.Start(0)
	s.RunUntil(30 * time.Second)
	src.Stop()
	if !policer.Active() {
		t.Fatal("quota never triggered the throttle")
	}
	// 8Mbps would meter 30MB without the quota; with the 2MB quota
	// and 128Kbps throttle the charge stays near the quota.
	metered := gw.session("imsi1").ulMeter.TotalBytes()
	if metered > 4_000_000 {
		t.Fatalf("metered %d bytes after quota, throttle ineffective", metered)
	}
	if policer.Dropped == 0 {
		t.Fatal("no policed drops")
	}
	// Policed traffic is uncharged: metered == delivered.
	if metered != sink.Bytes {
		t.Fatalf("metered %d != delivered %d; policer drops were charged", metered, sink.Bytes)
	}
}
