package netem

import (
	"runtime"
	"testing"
	"time"

	"tlc/internal/sim"
)

// TestDeliveryRingFIFOAcrossGrowth keeps more packets in flight than
// the ring's initial capacity so the circular buffer wraps and grows
// mid-stream, and checks packets still arrive in transmission order.
func TestDeliveryRingFIFOAcrossGrowth(t *testing.T) {
	s := sim.NewScheduler()
	var got []uint64
	dst := NodeFunc(func(p *Packet) { got = append(got, p.ID) })
	// Infinite rate + long delay: every packet sits in the ring at
	// once (pure-delay links skip the queue and go straight to
	// propagate).
	l := NewLink("wire", s, 0, 10*time.Millisecond, 0, dst)
	const n = 100 // well past the initial 16-slot ring
	var id uint64
	for i := 0; i < n; i++ {
		s.AtPooled(sim.Time(i)*time.Microsecond, func() {
			id++
			l.Recv(&Packet{ID: id, Size: 100})
		})
	}
	s.Run()
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("delivery order broken at %d: got ID %d, want %d", i, v, i+1)
		}
	}
	if l.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", l.InFlight())
	}
}

// TestLinkSteadyStateZeroAllocs asserts the full per-packet hot path —
// pool Get, Recv, queue, transmit, propagate (ring push), delayed
// delivery (ring pop), pool Put — allocates nothing once warm.
func TestLinkSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	delivered := 0
	dst := NodeFunc(func(p *Packet) {
		delivered++
		pp.Put(p)
	})
	l := NewLink("hot", s, 1e8, 2*time.Millisecond, 1<<20, dst)
	l.Pool = pp
	send := func() {
		p := pp.Get()
		p.Size = 1400
		p.QCI = 9
		l.Recv(p)
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}
	for i := 0; i < 64; i++ { // warm pools, heap, ring and queue
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("link hot path allocates %v per packet, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestLinkBacklogZeroAllocs offers a bounded link twice its rate, so
// the queue stays backlogged at its byte cap and never drains, and
// asserts the steady state allocates nothing. kick advances the
// queue's base on every transmission; unless enqueue slides the window
// back to the front of the backing array, append regrows the queue
// each time the window reaches the array's end, about once per queue
// length of transmissions. testing.AllocsPerRun divides its total by
// the run count in integers, so one allocation every ~64 packets
// reads as 0 per run; that is how TestLinkSteadyStateZeroAllocs missed
// the regrowth. This test counts raw runtime.MemStats.Mallocs over the
// whole backlogged run instead.
func TestLinkBacklogZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	dst := NodeFunc(func(p *Packet) { pp.Put(p) })
	// 1 Mb/s and 1000-byte packets: 8 ms per transmission, offered
	// every 4 ms, into a 64-packet queue.
	l := NewLink("backlog", s, 1e6, 2*time.Millisecond, 64*1000, dst)
	l.Pool = pp
	step := func() {
		p := pp.Get()
		p.Size, p.QCI = 1000, 9
		l.Recv(p)
		s.RunUntil(s.Now() + 4*time.Millisecond)
	}
	for i := 0; i < 1000; i++ { // fill the queue; warm pools, heap and ring
		step()
	}
	if l.QueueLen() < 32 {
		t.Fatalf("queue holds %d packets after warm-up; the link is not backlogged", l.QueueLen())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10000; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("backlogged link made %d allocations (%d bytes) over 10000 packets, want 0",
			n, after.TotalAlloc-before.TotalAlloc)
	}
	if l.Stats.QueueDrops == 0 {
		t.Fatal("no queue drops: the link was not offered more than its rate")
	}
}

// TestEvictLowerPriorityZeroAllocs asserts the queue-overflow eviction
// path reuses its scratch index slice instead of allocating a map.
func TestEvictLowerPriorityZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	l := NewLink("evict", s, 1e6, 0, 3000, &Sink{})
	l.Pool = pp
	l.Gate = func(sim.Time) bool { return false } // keep the queue full
	overflow := func() {
		// Fill with low-priority, then push a high-priority packet
		// that must evict.
		for l.QueuedBytes()+1000 <= l.QueueBytes {
			p := pp.Get()
			p.Size, p.QCI = 1000, 9
			l.Recv(p)
		}
		p := pp.Get()
		p.Size, p.QCI = 1000, 5
		l.Recv(p)
	}
	for i := 0; i < 16; i++ { // warm scratch, queue and pool
		overflow()
	}
	if avg := testing.AllocsPerRun(100, overflow); avg != 0 {
		t.Fatalf("eviction path allocates %v per overflow, want 0", avg)
	}
}

// TestDropQueuedFractionReturnsPacketsToPool checks every packet the
// handover buffer flush discards goes back to the pool.
func TestDropQueuedFractionReturnsPacketsToPool(t *testing.T) {
	s := sim.NewScheduler()
	pp := &PacketPool{}
	l := NewLink("ho", s, 1e6, 0, 1<<20, &Sink{})
	l.Pool = pp
	l.Gate = func(sim.Time) bool { return false } // buffer everything
	const n = 40
	for i := 0; i < n; i++ {
		p := pp.Get()
		p.Size, p.QCI = 500, 9
		l.Recv(p)
	}
	queued := l.QueueLen()
	if queued == 0 {
		t.Fatal("nothing queued")
	}
	packets, bytes := l.DropQueuedFraction(0.5)
	if packets == 0 || bytes == 0 {
		t.Fatal("nothing dropped")
	}
	if got := uint64(len(pp.free)); got != packets {
		t.Fatalf("pool got %d packets back, %d were dropped", got, packets)
	}
	if l.QueueLen() != queued-int(packets) {
		t.Fatalf("queue len %d after dropping %d of %d", l.QueueLen(), packets, queued)
	}
	// Full flush returns the rest too.
	rest, _ := l.DropQueuedFraction(1.0)
	if got := uint64(len(pp.free)); got != packets+rest {
		t.Fatalf("pool got %d packets back after full flush, want %d", got, packets+rest)
	}
}

// TestPacketPoolCap checks Put stops retaining beyond packetPoolCap
// and counts the overflow instead.
func TestPacketPoolCap(t *testing.T) {
	pp := &PacketPool{}
	n := packetPoolCap + 500
	for i := 0; i < n; i++ {
		pp.Put(&Packet{})
	}
	if len(pp.free) != packetPoolCap {
		t.Fatalf("free list len %d, want capped at %d", len(pp.free), packetPoolCap)
	}
	if pp.Drops != 500 {
		t.Fatalf("Drops = %d, want 500", pp.Drops)
	}
	// The capped pool still serves and accepts normally.
	p := pp.Get()
	pp.Put(p)
	if len(pp.free) != packetPoolCap || pp.Drops != 500 {
		t.Fatalf("post-cap Put/Get broken: free %d drops %d", len(pp.free), pp.Drops)
	}
}
