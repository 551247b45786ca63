// Cross-shard packet transport for the sharded event engine
// (sim.ShardGroup). A Lane is the sending half: a one-way conduit out
// of one partition with a fixed latency at least the shard group's
// lookahead. An Inbox is the receiving half: it merges every lane
// pointing at one partition and schedules the arrivals on that
// partition's scheduler at each window barrier.
//
// Pools are shard-local: a packet crossing a lane is copied by value
// into the lane buffer and its struct returns to the *source* shard's
// pool at Send; the Inbox draws a fresh struct from the
// *destination* shard's pool at Flush. No packet struct is ever
// owned by two schedulers.
//
// Determinism: Flush merges the inbound lanes by (at, lane, seq) —
// arrival time, then the lane's attach order, then the send order
// within the lane — and schedules arrivals in that merged order, so
// the destination scheduler assigns (at, seq) event keys identically
// no matter how many worker goroutines ran the window. Arrivals ride
// one sim.FIFO stream per Inbox, as Link deliveries do: within an
// Inbox every lane shares one Delay, so merged arrival times are
// non-decreasing across flushes.
package netem

import (
	"fmt"
	"time"

	"tlc/internal/sim"
)

// laneMsg is one packet in transit between partitions, held by value
// so the source shard's struct can be recycled immediately.
type laneMsg struct {
	at  sim.Time
	pkt Packet
}

// LaneStats counts a lane's traffic.
type LaneStats struct {
	Packets uint64
	Bytes   uint64
}

// Lane is the sending half of a cross-shard conduit. It belongs to
// the source partition: only that partition's events may call Send,
// and only the barrier (single-threaded) drains it.
type Lane struct {
	Name  string
	Delay time.Duration  // cross-shard latency; >= the group lookahead
	Sched *sim.Scheduler // source partition's clock
	Pool  *PacketPool    // source partition's pool (packets return here)

	Stats LaneStats

	buf       []laneMsg
	published bool
}

// NewLane returns a lane out of the partition owning sched and pool.
func NewLane(name string, delay time.Duration, sched *sim.Scheduler, pool *PacketPool) *Lane {
	if delay <= 0 {
		panic(fmt.Sprintf("netem: non-positive lane delay on %q", name))
	}
	return &Lane{Name: name, Delay: delay, Sched: sched, Pool: pool}
}

// Send puts a packet on the lane. The packet is copied by value and
// its struct returns to the source pool; the caller must not touch it
// afterwards. Delivery happens on the destination partition at
// now+Delay, after the next window barrier. Send must run from an
// event strictly after time zero: the very first window is closed
// [0, L] rather than half-open, so a send at exactly t=0 would arrive
// exactly on the first barrier, which Flush rejects.
//
//tlcvet:hotpath cross-shard egress; every forwarded packet takes one copy through here
func (l *Lane) Send(p *Packet) {
	l.Stats.Packets++
	l.Stats.Bytes += uint64(p.Size)
	l.buf = append(l.buf, laneMsg{at: l.Sched.Now() + sim.Time(l.Delay), pkt: *p})
	l.Pool.Put(p)
}

// InboxStats counts arrivals delivered into the destination
// partition.
type InboxStats struct {
	Packets uint64
	Bytes   uint64
}

// Inbox is the receiving half: all lanes into one partition. It
// implements sim.Exchanger; register it on the shard group and attach
// every inbound lane. All attached lanes must share one Delay (the
// FIFO arrival stream depends on it; see the package comment).
type Inbox struct {
	Name  string
	Sched *sim.Scheduler // destination partition's scheduler
	Pool  *PacketPool    // destination partition's pool
	Dst   Node           // where arrivals are delivered

	Stats InboxStats

	lanes []*Lane
	heads []int // per-lane merge cursor, reused across flushes

	arrivals *sim.FIFO[*Packet] // flushed packets awaiting delivery

	published bool
}

// NewInbox returns the receiving half for the partition owning sched
// and pool, delivering arrivals to dst.
func NewInbox(name string, sched *sim.Scheduler, pool *PacketPool, dst Node) *Inbox {
	ib := &Inbox{Name: name, Sched: sched, Pool: pool, Dst: dst}
	ib.arrivals = sim.NewFIFO(sched, ib.deliver)
	return ib
}

// Attach registers an inbound lane. Lanes merge in attach order —
// part of the deterministic (at, lane, seq) key — and must all carry
// the inbox's single Delay.
func (ib *Inbox) Attach(l *Lane) {
	if len(ib.lanes) > 0 && l.Delay != ib.lanes[0].Delay {
		panic(fmt.Sprintf("netem: inbox %q mixes lane delays %v and %v; the arrival stream needs one",
			ib.Name, ib.lanes[0].Delay, l.Delay))
	}
	ib.lanes = append(ib.lanes, l)
	ib.heads = append(ib.heads, 0)
}

// MinDelay implements sim.Exchanger.
func (ib *Inbox) MinDelay() time.Duration {
	if len(ib.lanes) == 0 {
		return time.Duration(1<<63 - 1)
	}
	return ib.lanes[0].Delay
}

// Flush implements sim.Exchanger: it merges every attached lane's
// buffered packets by (at, lane, seq) and schedules their deliveries
// on the destination scheduler. It runs single-threaded at the
// window barrier, which is what makes touching the destination pool
// and scheduler safe.
//
//tlcvet:hotpath cross-shard ingress; runs at every window barrier and once per forwarded packet
func (ib *Inbox) Flush(limit sim.Time) {
	for {
		best := -1
		var bestAt sim.Time
		for li, l := range ib.lanes {
			h := ib.heads[li]
			if h >= len(l.buf) {
				continue
			}
			if best < 0 || l.buf[h].at < bestAt {
				best, bestAt = li, l.buf[h].at
			}
		}
		if best < 0 {
			break
		}
		m := &ib.lanes[best].buf[ib.heads[best]]
		ib.heads[best]++
		if m.at <= limit {
			panic(fmt.Sprintf("netem: inbox %q message at %v violates the window barrier at %v", ib.Name, m.at, limit))
		}
		ib.Stats.Packets++
		ib.Stats.Bytes += uint64(m.pkt.Size)
		p := ib.Pool.Get()
		*p = m.pkt
		ib.arrivals.Push(m.at, p)
	}
	for li, l := range ib.lanes {
		if ib.heads[li] > 0 {
			l.buf = l.buf[:0]
			ib.heads[li] = 0
		}
	}
}

// deliver hands a flushed packet to the destination at its arrival
// time.
func (ib *Inbox) deliver(p *Packet) {
	if ib.Dst != nil {
		ib.Dst.Recv(p)
	}
}

// Arrived returns the number of packets delivered into this partition
// over all flushes.
func (ib *Inbox) Arrived() uint64 { return ib.Stats.Packets }
