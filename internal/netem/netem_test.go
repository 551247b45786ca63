package netem

import (
	"testing"
	"time"

	"tlc/internal/sim"
)

func newPkt(ids *IDGen, size int, qci uint8) *Packet {
	return &Packet{ID: ids.Next(), Flow: "f", Size: size, QCI: qci}
}

func TestInfiniteRateLinkIsPureDelay(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	var arrival sim.Time
	sink := NodeFunc(func(p *Packet) { arrival = s.Now() })
	l := NewLink("l", s, 0, 10*time.Millisecond, 0, sink)
	s.At(time.Second, func() { l.Recv(newPkt(ids, 1000, 9)) })
	s.Run()
	if arrival != time.Second+10*time.Millisecond {
		t.Fatalf("arrival = %v, want 1.01s", arrival)
	}
	if l.Stats.OutPackets != 1 || l.Stats.OutBytes != 1000 {
		t.Fatalf("stats = %+v", l.Stats)
	}
}

func TestLinkSerializationTime(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	var arrivals []sim.Time
	sink := NodeFunc(func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	// 8 Mbps link: a 1000-byte packet takes 1ms to serialize.
	l := NewLink("l", s, 8e6, 0, 1<<20, sink)
	s.At(0, func() {
		l.Recv(newPkt(ids, 1000, 9))
		l.Recv(newPkt(ids, 1000, 9))
		l.Recv(newPkt(ids, 1000, 9))
	})
	s.Run()
	want := []sim.Time{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival[%d] = %v, want %v", i, arrivals[i], want[i])
		}
	}
}

func TestLinkQueueDropTail(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	var got int
	sink := NodeFunc(func(p *Packet) { got++ })
	// Queue holds 2000 bytes; one packet transmits immediately, so of
	// 5 x 1000B back-to-back sends, 1 transmits, 2 queue, 2 drop.
	l := NewLink("l", s, 8e6, 0, 2000, sink)
	s.At(0, func() {
		for i := 0; i < 5; i++ {
			l.Recv(newPkt(ids, 1000, 9))
		}
	})
	s.Run()
	if got != 3 {
		t.Fatalf("delivered %d packets, want 3", got)
	}
	if l.Stats.QueueDrops != 2 || l.Stats.QueueDropped != 2000 {
		t.Fatalf("queue drops = %+v", l.Stats)
	}
}

func TestLinkPriorityScheduling(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	var order []uint8
	sink := NodeFunc(func(p *Packet) { order = append(order, p.QCI) })
	l := NewLink("l", s, 8e6, 0, 1<<20, sink)
	s.At(0, func() {
		// First packet seizes the transmitter; the rest queue and
		// must be served in priority order (QCI 7 before QCI 9).
		l.Recv(newPkt(ids, 1000, 9))
		l.Recv(newPkt(ids, 1000, 9))
		l.Recv(newPkt(ids, 7, 7))
		l.Recv(newPkt(ids, 1000, 9))
		l.Recv(newPkt(ids, 7, 7))
	})
	s.Run()
	want := []uint8{9, 7, 7, 9, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLinkPriorityEviction(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	var gotQCI []uint8
	sink := NodeFunc(func(p *Packet) { gotQCI = append(gotQCI, p.QCI) })
	l := NewLink("l", s, 8e6, 0, 2000, sink)
	s.At(0, func() {
		l.Recv(newPkt(ids, 1000, 9)) // transmitting
		l.Recv(newPkt(ids, 1000, 9)) // queued
		l.Recv(newPkt(ids, 1000, 9)) // queued (queue now full)
		l.Recv(newPkt(ids, 1000, 7)) // evicts a QCI 9 packet
	})
	s.Run()
	if l.Stats.QueueDrops != 1 {
		t.Fatalf("drops = %d, want 1", l.Stats.QueueDrops)
	}
	// Delivered: the transmitting 9, then priority 7, then one 9.
	want := []uint8{9, 7, 9}
	if len(gotQCI) != 3 {
		t.Fatalf("delivered = %v", gotQCI)
	}
	for i := range want {
		if gotQCI[i] != want[i] {
			t.Fatalf("delivered = %v, want %v", gotQCI, want)
		}
	}
}

func TestLinkHighPriorityCannotEvictEqualPriority(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	sink := &Sink{}
	l := NewLink("l", s, 8e6, 0, 1000, sink)
	s.At(0, func() {
		l.Recv(newPkt(ids, 1000, 7)) // transmitting
		l.Recv(newPkt(ids, 1000, 7)) // queued, fills queue
		l.Recv(newPkt(ids, 1000, 7)) // same priority: dropped
	})
	s.Run()
	if l.Stats.QueueDrops != 1 {
		t.Fatalf("drops = %d, want 1", l.Stats.QueueDrops)
	}
	if sink.Packets != 2 {
		t.Fatalf("delivered = %d, want 2", sink.Packets)
	}
}

// TestEvictMatchesFullScan checks the early-stopping eviction against
// a reference that scans the whole queue, over random QCI mixes,
// packet sizes and queue caps, with handover flushes mixed in: after
// every arrival the same packets are dropped in the same order, and
// the same packets stay queued under the same byte count.
func TestEvictMatchesFullScan(t *testing.T) {
	rng := sim.NewRNG(20261017)
	qcis := []uint8{1, 5, 6, 7, 7, 8, 9, 9, 9}
	for trial := 0; trial < 200; trial++ {
		capBytes := 2000 + rng.Intn(20000)
		pp := &PacketPool{}
		l := NewLink("evict", sim.NewScheduler(), 1e6, 0, capBytes, &Sink{})
		l.Pool = pp
		l.Gate = func(sim.Time) bool { return false } // only drops leave the queue
		var ref []*Packet
		refBytes := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(16) == 0 {
				// A handover flush: DropQueuedFraction also keeps the
				// queue sorted, which the early stop relies on.
				frac := rng.Float64()
				target := int(float64(refBytes) * frac)
				var victims []*Packet
				for dropped := 0; len(ref) > 0 && dropped < target; {
					q := ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					dropped += q.Size
					refBytes -= q.Size
					victims = append(victims, q)
				}
				before := len(pp.free)
				l.DropQueuedFraction(frac)
				checkEviction(t, trial, i, pp.free[before:], victims, l, ref, refBytes)
				continue
			}
			p := &Packet{ID: uint64(i + 1), Size: 100 + rng.Intn(1400), QCI: qcis[rng.Intn(len(qcis))]}
			// The reference: mark every evictable packet from the back
			// until enough room is freed, then compact.
			admitted := true
			var victims []*Packet
			if need := refBytes + p.Size - capBytes; need > 0 {
				freed := 0
				marked := make(map[int]bool)
				for j := len(ref) - 1; j >= 0 && freed < need; j-- {
					if ref[j].QCI > p.QCI {
						freed += ref[j].Size
						marked[j] = true
					}
				}
				if freed < need {
					admitted = false
					victims = []*Packet{p}
				} else {
					var keep []*Packet
					for j, q := range ref {
						if marked[j] {
							victims = append(victims, q)
							refBytes -= q.Size
						} else {
							keep = append(keep, q)
						}
					}
					ref = keep
				}
			}
			if admitted {
				j := len(ref)
				for j > 0 && ref[j-1].QCI > p.QCI {
					j--
				}
				ref = append(ref[:j], append([]*Packet{p}, ref[j:]...)...)
				refBytes += p.Size
			}
			before := len(pp.free)
			l.Recv(p)
			checkEviction(t, trial, i, pp.free[before:], victims, l, ref, refBytes)
		}
	}
}

// checkEviction compares one step of TestEvictMatchesFullScan with its
// reference: the packets returned to the pool, then the queue.
func checkEviction(t *testing.T, trial, step int, dropped, victims []*Packet, l *Link, ref []*Packet, refBytes int) {
	t.Helper()
	if len(dropped) != len(victims) {
		t.Fatalf("trial %d step %d: dropped %d packets, the full scan drops %d", trial, step, len(dropped), len(victims))
	}
	for k := range victims {
		if dropped[k] != victims[k] {
			t.Fatalf("trial %d step %d: drop %d is packet %d, the full scan drops %d",
				trial, step, k, dropped[k].ID, victims[k].ID)
		}
	}
	if len(l.queue) != len(ref) {
		t.Fatalf("trial %d step %d: %d packets queued, the full scan keeps %d", trial, step, len(l.queue), len(ref))
	}
	for k := range ref {
		if l.queue[k] != ref[k] {
			t.Fatalf("trial %d step %d: queue slot %d holds packet %d, the full scan has %d",
				trial, step, k, l.queue[k].ID, ref[k].ID)
		}
	}
	if l.queuedBytes != refBytes {
		t.Fatalf("trial %d step %d: %d bytes queued, the full scan has %d", trial, step, l.queuedBytes, refBytes)
	}
}

func TestBernoulliLoss(t *testing.T) {
	rng := sim.NewRNG(5)
	always := &BernoulliLoss{P: 1, RNG: rng}
	never := &BernoulliLoss{P: 0, RNG: rng}
	if !always.Drop(nil, 0) || never.Drop(nil, 0) {
		t.Fatal("degenerate Bernoulli wrong")
	}
	half := &BernoulliLoss{P: 0.5, RNG: rng}
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if half.Drop(nil, 0) {
			drops++
		}
	}
	if drops < 4700 || drops > 5300 {
		t.Fatalf("P=0.5 dropped %d/%d", drops, n)
	}
}

func TestLinkLossModelCounts(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	sink := &Sink{}
	l := NewLink("l", s, 0, 0, 0, sink)
	l.Loss = &BernoulliLoss{P: 1, RNG: sim.NewRNG(1)}
	s.At(0, func() { l.Recv(newPkt(ids, 500, 9)) })
	s.Run()
	if sink.Packets != 0 || l.Stats.LossDrops != 1 || l.Stats.LossDropped != 500 {
		t.Fatalf("loss accounting: sink=%d stats=%+v", sink.Packets, l.Stats)
	}
}

func TestLinkGateBuffersUntilOpen(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	var arrival sim.Time
	sink := NodeFunc(func(p *Packet) { arrival = s.Now() })
	open := false
	l := NewLink("l", s, 8e6, 0, 1<<20, sink)
	l.Gate = func(now sim.Time) bool { return open }
	s.At(0, func() { l.Recv(newPkt(ids, 1000, 9)) })
	s.At(500*time.Millisecond, func() { open = true; l.Kick() })
	s.Run()
	if arrival < 500*time.Millisecond {
		t.Fatalf("packet delivered at %v while gated", arrival)
	}
	if l.Stats.OutPackets != 1 {
		t.Fatalf("stats = %+v", l.Stats)
	}
}

func TestMeterCountsAndWindows(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter("m", s, nil)
	s.At(50*time.Millisecond, func() { m.Recv(&Packet{Size: 100}) })
	s.At(250*time.Millisecond, func() { m.Recv(&Packet{Size: 200}) })
	s.At(1050*time.Millisecond, func() { m.Recv(&Packet{Size: 400}) })
	s.Run()
	if m.TotalBytes() != 700 {
		t.Fatalf("total = %d bytes, want 700", m.TotalBytes())
	}
	if got := m.BytesInWindow(0, time.Second); got != 300 {
		t.Fatalf("window [0,1s) = %v, want 300", got)
	}
	if got := m.BytesInWindow(time.Second, 2*time.Second); got != 400 {
		t.Fatalf("window [1s,2s) = %v, want 400", got)
	}
	if got := m.BytesInWindow(0, 2*time.Second); got != 700 {
		t.Fatalf("window [0,2s) = %v, want 700", got)
	}
}

func TestMeterPartialBinInterpolation(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter("m", s, nil)
	s.At(0, func() { m.Recv(&Packet{Size: 1000}) }) // bin [0, 100ms)
	s.Run()
	// Half the first bin should attribute half the bytes.
	if got := m.BytesInWindow(0, 50*time.Millisecond); got != 500 {
		t.Fatalf("half-bin = %v, want 500", got)
	}
	if got := m.BytesInWindow(25*time.Millisecond, 75*time.Millisecond); got != 500 {
		t.Fatalf("middle half-bin = %v, want 500", got)
	}
}

func TestMeterEdgeCases(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter("m", s, nil)
	if m.BytesInWindow(0, time.Second) != 0 {
		t.Fatal("empty meter nonzero")
	}
	s.At(0, func() { m.Recv(&Packet{Size: 100}) })
	s.Run()
	if m.BytesInWindow(time.Second, time.Second) != 0 {
		t.Fatal("empty window nonzero")
	}
	if m.BytesInWindow(2*time.Second, time.Second) != 0 {
		t.Fatal("inverted window nonzero")
	}
	if got := m.BytesInWindow(-time.Second, time.Second); got != 100 {
		t.Fatalf("negative start clamped = %v, want 100", got)
	}
}

func TestMeterSkipsBackgroundByDefault(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter("m", s, nil)
	s.At(0, func() {
		m.Recv(&Packet{Size: 100, Background: true})
		m.Recv(&Packet{Size: 50})
	})
	s.Run()
	if m.TotalBytes() != 50 {
		t.Fatalf("TotalBytes = %d, want 50", m.TotalBytes())
	}
}

func TestMeterFilterAndForwarding(t *testing.T) {
	s := sim.NewScheduler()
	sink := &Sink{}
	m := NewMeter("m", s, sink)
	s.At(0, func() {
		m.Recv(&Packet{Size: 10})
		m.Recv(&Packet{Size: 20, Background: true}) // forwarded, not counted
	})
	s.Run()
	if m.TotalBytes() != 10 {
		t.Fatalf("filtered TotalBytes = %d", m.TotalBytes())
	}
	if sink.Packets != 2 {
		t.Fatalf("forwarded %d packets, want 2", sink.Packets)
	}
}

func TestMeterSeriesMB(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter("m", s, nil)
	s.At(500*time.Millisecond, func() { m.Recv(&Packet{Size: 1e6}) })
	s.At(1500*time.Millisecond, func() { m.Recv(&Packet{Size: 2e6}) })
	s.Run()
	series := m.SeriesMB(time.Second, 2*time.Second)
	if len(series) != 2 || series[0] != 1 || series[1] != 2 {
		t.Fatalf("series = %v", series)
	}
}

func TestTrafficSourceRate(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	sink := &Sink{}
	src := &TrafficSource{
		Sched: s, IDs: ids, Dst: sink,
		Flow: "bg", RateBps: 8e6, PacketSize: 1000,
	}
	src.Start(0)
	s.RunUntil(time.Second)
	// 8 Mbps at 1000B packets = 1000 packets/s (one emitted at t=0).
	if sink.Packets < 990 || sink.Packets > 1010 {
		t.Fatalf("packets in 1s = %d, want ~1000", sink.Packets)
	}
	src.Stop()
	before := sink.Packets
	s.RunUntil(2 * time.Second)
	if sink.Packets > before+1 {
		t.Fatalf("source kept emitting after Stop: %d -> %d", before, sink.Packets)
	}
}

func TestTrafficSourceJitterStaysPositive(t *testing.T) {
	s := sim.NewScheduler()
	ids := &IDGen{}
	sink := &Sink{}
	src := &TrafficSource{
		Sched: s, IDs: ids, Dst: sink,
		Flow: "bg", RateBps: 1e6, PacketSize: 100,
		Jitter: 0.5, RNG: sim.NewRNG(9),
	}
	src.Start(0)
	s.RunUntil(time.Second)
	// 1 Mbps at 100B = 1250 pkt/s nominal; jitter keeps the long-run
	// rate within ~10%.
	if sink.Packets < 1000 || sink.Packets > 1600 {
		t.Fatalf("jittered packets = %d", sink.Packets)
	}
}

func TestTrafficSourceZeroRateNoEmission(t *testing.T) {
	s := sim.NewScheduler()
	sink := &Sink{}
	src := &TrafficSource{Sched: s, IDs: &IDGen{}, Dst: sink, RateBps: 0}
	src.Start(0)
	s.RunUntil(time.Second)
	if sink.Packets != 0 {
		t.Fatal("zero-rate source emitted packets")
	}
}

func TestDirectionString(t *testing.T) {
	if Uplink.String() != "UL" || Downlink.String() != "DL" {
		t.Fatal("direction strings wrong")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Fatalf("unknown direction: %s", Direction(9))
	}
}

func TestIDGenMonotonic(t *testing.T) {
	g := &IDGen{}
	last := uint64(0)
	for i := 0; i < 100; i++ {
		id := g.Next()
		if id <= last {
			t.Fatal("IDs not strictly increasing")
		}
		last = id
	}
}

func TestSinkCounts(t *testing.T) {
	s := &Sink{}
	s.Recv(&Packet{Size: 10})
	s.Recv(&Packet{Size: 20})
	if s.Packets != 2 || s.Bytes != 30 {
		t.Fatalf("sink = %+v", s)
	}
}
