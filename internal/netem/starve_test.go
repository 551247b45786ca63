package netem

import (
	"testing"
	"time"

	"tlc/internal/sim"
)

// TestPriorityFlowSurvivesFlood is a regression test for queue
// corruption in evictLowerPriority: a high-priority (QCI=7) trickle
// must survive a sustained low-priority flood on a slow link, since
// every arrival can evict queued lower-priority bytes.
func TestPriorityFlowSurvivesFlood(t *testing.T) {
	s := sim.NewScheduler()
	var gameGot, bgGot int
	sink := NodeFunc(func(p *Packet) {
		if p.QCI == 7 {
			gameGot++
		} else {
			bgGot++
		}
	})
	l := NewLink("air", s, 5.6e6, 0, 256<<10, sink)
	ids := &IDGen{}
	bg := &TrafficSource{Sched: s, IDs: ids, Dst: l, Flow: "bg", QCI: 9,
		RateBps: 125e6, PacketSize: 7000, Background: true}
	game := &TrafficSource{Sched: s, IDs: ids, Dst: l, Flow: "g", QCI: 7,
		RateBps: 25 * 128 * 8, PacketSize: 128}
	bg.Start(0)
	game.Start(0)
	s.RunUntil(10 * time.Second)
	bg.Stop()
	game.Stop()
	s.RunUntil(11 * time.Second)
	// 25 pkt/s for 10s = ~250 packets; allow a couple in flight.
	if gameGot < 245 {
		t.Fatalf("priority flow starved: %d/250 delivered (bg %d, drops %d)",
			gameGot, bgGot, l.Stats.QueueDrops)
	}
	// The flood itself is mostly shed (5.6Mbps of 125Mbps offered).
	if l.Stats.QueueDrops == 0 {
		t.Fatal("no queue drops under a 20x overload")
	}
	// Byte accounting must balance after heavy eviction churn.
	if l.queuedBytes < 0 || l.queuedBytes > 256<<10 {
		t.Fatalf("queuedBytes accounting corrupt: %d", l.queuedBytes)
	}
}
