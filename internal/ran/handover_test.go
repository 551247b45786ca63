package ran

import (
	"testing"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

func TestHandoverModelDisabled(t *testing.T) {
	s := sim.NewScheduler()
	h := NewHandoverModel(s, sim.NewRNG(1), 0)
	h.Start()
	s.RunUntil(time.Minute)
	if h.Handovers() != 0 {
		t.Fatal("disabled model executed handovers")
	}
}

func TestHandoverExecutesAndInterrupts(t *testing.T) {
	s := sim.NewScheduler()
	h := NewHandoverModel(s, sim.NewRNG(2), 10*time.Second)
	var events []sim.Time
	h.OnHandover = func(now sim.Time) { events = append(events, now) }
	h.Start()
	// Probe Active during the interruption window of the first event.
	s.RunUntil(2 * time.Minute)
	if h.Handovers() == 0 || len(events) == 0 {
		t.Fatal("no handovers in 2 minutes at 10s mean interval")
	}
	// Roughly 2min/10s = 12 events expected; tolerate wide variance.
	if h.Handovers() < 4 || h.Handovers() > 30 {
		t.Fatalf("handovers = %d, want ~12", h.Handovers())
	}
}

func TestHandoverActiveWindow(t *testing.T) {
	s := sim.NewScheduler()
	h := NewHandoverModel(s, sim.NewRNG(3), 30*time.Second)
	var at sim.Time
	h.OnHandover = func(now sim.Time) {
		at = now
		if !h.Active(now) {
			t.Error("not active during handover event")
		}
	}
	h.Start()
	s.RunUntil(3 * time.Minute)
	if at == 0 {
		t.Fatal("no handover happened")
	}
	if h.Active(s.Now()) {
		t.Fatal("still active long after the interruption")
	}
}

func TestHandoverFlushesSourceBuffers(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	// A slow link so the queue is always populated.
	l := netem.NewLink("air", s, 1e6, 0, 1<<20, sink)
	src := &netem.TrafficSource{Sched: s, IDs: &netem.IDGen{}, Dst: l,
		Flow: "f", QCI: 9, RateBps: 5e6, PacketSize: 1400}
	h := NewHandoverModel(s, sim.NewRNG(4), 5*time.Second)
	h.Links = []*netem.Link{l}
	src.Start(0)
	h.Start()
	s.RunUntil(time.Minute)
	src.Stop()
	pkts, bytes := h.Lost()
	if pkts == 0 || bytes == 0 {
		t.Fatal("handovers lost nothing from a saturated buffer")
	}
	if h.Handovers() == 0 {
		t.Fatal("no handovers")
	}
}

func TestHandoverPartialForwarding(t *testing.T) {
	// With perfect X2 forwarding nothing is lost.
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	l := netem.NewLink("air", s, 1e6, 0, 1<<20, sink)
	src := &netem.TrafficSource{Sched: s, IDs: &netem.IDGen{}, Dst: l,
		Flow: "f", QCI: 9, RateBps: 5e6, PacketSize: 1400}
	h := NewHandoverModel(s, sim.NewRNG(5), 5*time.Second)
	h.ForwardingLossFrac = 0
	h.Links = []*netem.Link{l}
	src.Start(0)
	h.Start()
	s.RunUntil(30 * time.Second)
	if _, bytes := h.Lost(); bytes != 0 {
		t.Fatalf("perfect forwarding lost %d bytes", bytes)
	}
}

func TestDropQueuedFraction(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	l := netem.NewLink("l", s, 8e6, 0, 1<<20, sink)
	ids := &netem.IDGen{}
	s.At(0, func() {
		for i := 0; i < 11; i++ { // 1 transmitting + 10 queued
			l.Recv(&netem.Packet{ID: ids.Next(), Size: 1000, QCI: 9})
		}
		pkts, bytes := l.DropQueuedFraction(0.5)
		if pkts != 5 || bytes != 5000 {
			t.Errorf("dropped %d pkts / %d bytes, want 5/5000", pkts, bytes)
		}
		// Zero fraction and empty-queue cases.
		if p, _ := l.DropQueuedFraction(0); p != 0 {
			t.Error("zero fraction dropped packets")
		}
	})
	s.Run()
	if sink.Packets != 6 {
		t.Fatalf("delivered %d, want 6 (1 in flight + 5 kept)", sink.Packets)
	}
}
