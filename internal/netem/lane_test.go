package netem

import (
	"strings"
	"testing"
	"time"

	"tlc/internal/sim"
)

// TestLaneSendCopiesAndRecyclesImmediately pins the pool-per-shard
// contract: Send copies the packet by value into the lane buffer and
// the struct goes straight back to the source pool.
func TestLaneSendCopiesAndRecyclesImmediately(t *testing.T) {
	s := sim.NewScheduler()
	pp := &PacketPool{}
	l := NewLane("x2", 10*time.Millisecond, s, pp)
	p := pp.Get()
	p.ID = 7
	p.Size = 100
	p.TEID = 3
	l.Send(p)
	if len(l.buf) != 1 {
		t.Fatalf("%d packets buffered, want 1", len(l.buf))
	}
	if l.Stats.Packets != 1 || l.Stats.Bytes != 100 {
		t.Fatalf("stats = %+v, want 1 packet / 100 bytes", l.Stats)
	}
	// The struct must already be reusable: the next Get returns the
	// same (zeroed) struct without disturbing the buffered copy.
	q := pp.Get()
	if q != p {
		t.Fatal("Send did not return the packet struct to the source pool")
	}
	if q.ID != 0 || q.Size != 0 {
		t.Fatalf("recycled struct not zeroed: %+v", q)
	}
	if l.buf[0].pkt.ID != 7 || l.buf[0].pkt.Size != 100 || l.buf[0].pkt.TEID != 3 {
		t.Fatalf("buffered copy corrupted by recycling: %+v", l.buf[0].pkt)
	}
}

// TestLaneRejectsNonPositiveDelay: a zero-delay lane could deliver
// inside the execution window, so construction must refuse it.
func TestLaneRejectsNonPositiveDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLane accepted delay 0")
		}
	}()
	NewLane("bad", 0, sim.NewScheduler(), nil)
}

// TestShardParityInboxMergesByAtThenLaneThenSeq pins the deterministic
// merge key: earlier arrival time first; at equal times the earlier-
// attached lane first; within one lane, send order.
func TestShardParityInboxMergesByAtThenLaneThenSeq(t *testing.T) {
	srcA := sim.NewScheduler()
	srcB := sim.NewScheduler()
	dstSched := sim.NewScheduler()
	dstPool := &PacketPool{}
	var got []uint64
	ib := NewInbox("in", dstSched, dstPool, NodeFunc(func(p *Packet) {
		got = append(got, p.ID)
		dstPool.Put(p)
	}))
	delay := 10 * time.Millisecond
	laneA := NewLane("a", delay, srcA, nil)
	laneB := NewLane("b", delay, srcB, nil)
	ib.Attach(laneA)
	ib.Attach(laneB)

	send := func(l *Lane, src *sim.Scheduler, at sim.Time, id uint64) {
		src.At(at, func() { l.Send(&Packet{ID: id, Size: 10}) })
	}
	// B sends first in wall order but A's equal-time traffic must win
	// (lane attach order), and A's 1ms message beats both.
	send(laneB, srcB, sim.Time(2*time.Millisecond), 20)
	send(laneB, srcB, sim.Time(2*time.Millisecond), 21) // same instant: send order
	send(laneA, srcA, sim.Time(2*time.Millisecond), 10)
	send(laneA, srcA, sim.Time(1*time.Millisecond), 11)
	window := sim.Time(delay)
	srcA.RunUntil(window)
	srcB.RunUntil(window)
	ib.Flush(window)
	dstSched.RunUntil(window + sim.Time(delay))
	want := []uint64{11, 10, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	if ib.Arrived() != 4 || ib.Stats.Bytes != 40 {
		t.Fatalf("inbox stats = %+v, want 4 packets / 40 bytes", ib.Stats)
	}
	if len(laneA.buf) != 0 || len(laneB.buf) != 0 {
		t.Fatal("Flush left lane buffers non-empty")
	}
}

// TestInboxFlushPanicsOnBarrierViolation: a message timed at or before
// the window end means the lookahead contract was broken upstream;
// Flush must fail loudly, not deliver into the past.
func TestInboxFlushPanicsOnBarrierViolation(t *testing.T) {
	src := sim.NewScheduler()
	dst := sim.NewScheduler()
	ib := NewInbox("in", dst, nil, nil)
	l := NewLane("a", 5*time.Millisecond, src, nil)
	ib.Attach(l)
	l.Send(&Packet{ID: 1}) // arrival at 5ms
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Flush accepted a message inside the window")
		}
		if !strings.Contains(r.(string), "violates the window barrier") {
			t.Fatalf("panic %q should name the barrier violation", r)
		}
	}()
	ib.Flush(sim.Time(5 * time.Millisecond))
}

// TestInboxRejectsMixedLaneDelays: the FIFO arrival ring pairs pushes
// with pooled delivery events, which is only order-safe when every
// lane of an inbox shares one delay.
func TestInboxRejectsMixedLaneDelays(t *testing.T) {
	s := sim.NewScheduler()
	ib := NewInbox("in", s, nil, nil)
	ib.Attach(NewLane("a", 5*time.Millisecond, s, nil))
	defer func() {
		if recover() == nil {
			t.Fatal("Attach accepted a lane with a different delay")
		}
	}()
	ib.Attach(NewLane("b", 6*time.Millisecond, s, nil))
}

// TestInboxMinDelay: the exchanger's lookahead bound is the shared
// lane delay, and effectively infinite with no lanes attached.
func TestInboxMinDelay(t *testing.T) {
	s := sim.NewScheduler()
	ib := NewInbox("in", s, nil, nil)
	if ib.MinDelay() < time.Duration(1<<62) {
		t.Fatalf("empty inbox MinDelay = %v, want effectively infinite", ib.MinDelay())
	}
	ib.Attach(NewLane("a", 7*time.Millisecond, s, nil))
	if ib.MinDelay() != 7*time.Millisecond {
		t.Fatalf("MinDelay = %v, want 7ms", ib.MinDelay())
	}
}

// TestShardParityLaneSteadyStateZeroAllocs extends the PR 3 zero-alloc
// guards to the cross-shard path: once lane buffers, the arrival ring
// and both pools are warm, a full send → flush → deliver cycle
// allocates nothing.
func TestShardParityLaneSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	src := sim.NewScheduler()
	dst := sim.NewScheduler()
	srcPool := &PacketPool{}
	dstPool := &PacketPool{}
	ib := NewInbox("in", dst, dstPool, NodeFunc(func(p *Packet) { dstPool.Put(p) }))
	delay := time.Millisecond
	l := NewLane("a", delay, src, srcPool)
	ib.Attach(l)

	window := sim.Time(0)
	sendBatch := func(batch int) func() {
		return func() {
			for i := 0; i < batch; i++ {
				p := srcPool.Get()
				p.ID = uint64(i)
				p.Size = 100
				l.Send(p)
			}
		}
	}
	send8 := sendBatch(8)
	cycle := func() {
		// Send mid-window, as real traffic does: a send at exactly
		// time zero would arrive exactly on the first barrier.
		src.AtPooled(window+sim.Time(delay)/2, send8)
		window += sim.Time(delay)
		src.RunUntil(window)
		ib.Flush(window)
		dst.RunUntil(window)
	}
	for i := 0; i < 32; i++ { // warm buffers, ring, pools, free lists
		cycle()
	}
	avg := testing.AllocsPerRun(100, func() { cycle() })
	if avg != 0 {
		t.Fatalf("lane send/flush/deliver steady state allocates %v per cycle, want 0", avg)
	}
}
