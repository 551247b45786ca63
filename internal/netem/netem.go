// Package netem emulates the packet-level network substrate: links
// with finite rate, propagation delay and drop-tail queues, QCI-based
// priority scheduling, configurable loss models, byte meters, and
// background (cross) traffic sources.
//
// The emulated LTE core (internal/epc) and radio access network
// (internal/ran) are assembled from these parts. Where a packet is
// dropped relative to the operator's metering point is what creates
// the charging gap the paper studies, so the topology builders are
// careful about drop placement (see DESIGN.md).
package netem

import (
	"fmt"
	"time"

	"tlc/internal/sim"
)

// Direction of a packet relative to the edge device.
type Direction int

const (
	// Uplink flows from the edge device toward the edge server.
	Uplink Direction = iota
	// Downlink flows from the edge server toward the edge device.
	Downlink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Uplink:
		return "UL"
	case Downlink:
		return "DL"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Packet is one network datagram moving through the emulation. Sizes
// are in bytes and include protocol headers; the simulator does not
// carry payload bytes.
type Packet struct {
	ID         uint64
	Flow       string    // application flow identifier
	IMSI       string    // subscriber the packet belongs to
	QCI        uint8     // LTE QoS class identifier (1 = highest priority)
	Size       int       // bytes on the wire
	Dir        Direction // uplink or downlink
	Sent       sim.Time  // time the application emitted the packet
	Background bool      // cross traffic, never charged to the edge app

	// Tunneled and TEID are set while the packet rides a GTP-U
	// tunnel between the base station and the gateway.
	Tunneled bool
	TEID     uint32

	// Seq is the transport-layer sequence number for reliable flows
	// (internal/transport); zero for datagram traffic.
	Seq uint64
}

// Node consumes packets. Links, gateways, base stations, devices and
// meters all implement Node.
type Node interface {
	Recv(pkt *Packet)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(*Packet)

// Recv implements Node.
func (f NodeFunc) Recv(pkt *Packet) { f(pkt) }

// Sink is a Node that counts and discards everything it receives.
type Sink struct {
	Packets uint64
	Bytes   uint64
}

// Recv implements Node.
//
//tlcvet:allow unreached — test support: the tests of netem, ran, epc, apps and device end their chains in a Sink
func (s *Sink) Recv(pkt *Packet) {
	s.Packets++
	s.Bytes += uint64(pkt.Size)
}

// IDGen allocates packet IDs unique within one simulation.
type IDGen struct{ next uint64 }

// Next returns the next packet ID.
func (g *IDGen) Next() uint64 {
	g.next++
	return g.next
}

// PacketPool recycles Packet structs within one simulation. Traffic
// sources draw packets from the pool and every terminal point — app
// sinks, drop sites inside links and droppers, the gateway's
// detached-discard — returns them, so a steady-state cycle stops
// allocating per packet. A pool belongs to a single scheduler (one
// testbed); it is not safe for concurrent use, which is fine because
// parallel sweeps give every cell its own testbed. A nil *PacketPool
// is valid everywhere and falls back to plain allocation.
type PacketPool struct {
	free []*Packet

	// Gets/Reuses count pool traffic for allocation diagnostics.
	Gets   uint64
	Reuses uint64
	// Drops counts packets discarded at Put because the free list sat
	// at packetPoolCap: the burst's high-water mark goes to the GC
	// instead of staying pinned for the rest of the cycle.
	Drops uint64

	published bool
}

// packetPoolCap bounds the pool's free list; see PacketPool.Drops.
const packetPoolCap = 1 << 16

// Get returns a zeroed packet, reusing a recycled struct when one is
// available.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		//tlcvet:allow hotalloc — pool-less operation is the documented fallback for tiny topologies
		return &Packet{}
	}
	pp.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.Reuses++
		*p = Packet{}
		return p
	}
	//tlcvet:allow hotalloc — pool miss: allocates only until the free list warms up to the burst's high-water mark
	return &Packet{}
}

// Put returns a packet whose journey ended (delivered to its final
// consumer or dropped). The caller must not touch p afterwards.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	if len(pp.free) >= packetPoolCap {
		pp.Drops++
		return
	}
	pp.free = append(pp.free, p)
}

// LossModel decides whether a packet is lost in transit on a link.
// now is the instant the packet's transmission ends. A link may ask at
// the transmission's start, with the end time (see Link's held
// transmissions), so Drop must depend on now and the packet alone and
// draw only from the model's own random stream; a link asks about its
// packets in transmission order either way.
type LossModel interface {
	Drop(pkt *Packet, now sim.Time) bool
}

// NoLoss never drops.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*Packet, sim.Time) bool { return false }

// BernoulliLoss drops each packet independently with probability P.
type BernoulliLoss struct {
	P   float64
	RNG *sim.RNG
}

// Drop implements LossModel.
func (b *BernoulliLoss) Drop(_ *Packet, _ sim.Time) bool {
	if b.P <= 0 {
		return false
	}
	if b.P >= 1 {
		return true
	}
	return b.RNG.Float64() < b.P
}

// LossFunc adapts a function to the LossModel interface; the radio
// layer uses it to drive loss from the instantaneous RSS.
type LossFunc func(pkt *Packet, now sim.Time) bool

// Drop implements LossModel.
func (f LossFunc) Drop(pkt *Packet, now sim.Time) bool { return f(pkt, now) }

// LinkStats counts what happened on a link. LossDrops and LossDropped
// lag behind the simulated clock for a held transmission (see Link),
// and on a link with BackgroundEnds set so do OutPackets, OutBytes and
// Ended, until the link's Settle runs (InFlight, Backlog and
// PublishMetrics run it): call Settle before reading them between
// events.
type LinkStats struct {
	InPackets    uint64
	InBytes      uint64
	OutPackets   uint64
	OutBytes     uint64
	QueueDrops   uint64
	QueueDropped uint64 // bytes
	LossDrops    uint64
	LossDropped  uint64 // bytes

	// Fault-injection outcomes (see FaultInjector); all zero when no
	// injector is attached.
	FaultDrops   uint64
	FaultDropped uint64 // bytes
	FaultDups    uint64
	FaultDelays  uint64

	// Ended counts the background packets that BackgroundEnds retired
	// at the transmitter and whose delivery time has passed; each is
	// in OutPackets too, and each is one wire event the scheduler did
	// not fire.
	Ended uint64
}

// FaultAction is a fault injector's verdict for one packet. The zero
// value passes the packet through untouched. Drop wins over the other
// fields; Duplicate and ExtraDelay compose (the copy is sent clean,
// the original is delayed).
type FaultAction struct {
	Drop       bool
	Duplicate  bool
	ExtraDelay time.Duration
}

// FaultInjector decides per-packet faults on a link, consulted after
// the loss model (faults are on-the-wire events, like loss). It is
// deliberately separate from LossModel so fault sweeps can stack on
// any configured loss regime. Implementations must be deterministic
// given their own seeded RNG; internal/faults provides the standard
// one.
type FaultInjector interface {
	Apply(pkt *Packet, now sim.Time) FaultAction
}

// Link is a simplex link with a finite transmission rate, a priority
// drop-tail queue, fixed propagation delay and an optional loss model
// applied after transmission (i.e. "on the wire"). A zero RateBps
// means infinite rate (no queueing). The queue serves strictly by QCI
// priority (lower QCI first) and FIFO within a class, matching LTE's
// scheduling-based primitives that the paper credits for the
// low-latency edge (§2.1).
//
// A transmission with nothing queued behind it, on a link with a
// positive Delay and no Inject, is held: kick settles it at its start,
// asking Loss about the packet with the end time and putting it on the
// wire (or ending it) at once, and reserves the completion's key with
// a sim.Hold instead of scheduling it. A packet that queues behind the
// held transmission before that key claims the hold, and the
// completion fires at exactly that key; otherwise no event fires for
// it. Until the clock passes the key the packet counts in Backlog, not
// InFlight, and a loss counts in LossDrops from then on, once Settle
// runs. The wire delivery takes its seq at the start rather than at
// the end, the one change in event order.
type Link struct {
	Name       string
	Sched      *sim.Scheduler
	RateBps    float64
	Delay      time.Duration
	QueueBytes int // queue capacity in bytes; 0 = unlimited
	Loss       LossModel
	Dst        Node

	// Inject optionally applies per-packet faults (drop bursts,
	// duplication, reordering, delay spikes) after the loss model.
	// Leave nil for a clean link; the hot path pays nothing for it.
	Inject FaultInjector

	// Gate optionally pauses the server: while Gate returns false the
	// link buffers packets instead of transmitting (the RAN uses this
	// to model base-station buffering across short radio outages).
	Gate func(now sim.Time) bool

	// RateScale optionally scales the transmission rate at each
	// serving instant; the RAN uses it to model MCS adaptation (weak
	// signal lowers the achievable rate rather than dropping IP
	// packets — HARQ recovers those). Values are clamped to a small
	// positive floor.
	RateScale func(now sim.Time) float64

	// Pool optionally recycles packets the link drops (queue
	// overflow, loss model, handover buffer flush). Leave nil when
	// packets are allocated outside a PacketPool.
	Pool *PacketPool

	// BackgroundEnds ends background packets at the transmitter, for a
	// link whose Dst would only discard them. Such a packet still
	// queues, transmits and meets Loss and Inject; then, instead of a
	// wire event that hands it to Dst after Delay, it goes back to
	// Pool at once. The link keeps its delivery time, size and QCI and
	// counts it delivered once that time has passed and Settle runs
	// (the link's next send runs it too), so Stats, the per-QCI
	// counters and InFlight read as if it had reached Dst. A packet a
	// fault injector delays keeps its wire event. The scheduler fires
	// one event fewer per ended packet, and every other event keeps
	// its (at, seq) order.
	BackgroundEnds bool

	Stats LinkStats

	// queue is the live window of qbuf, the queue's whole backing
	// array: kick advances the window's base, and enqueue slides the
	// window back to qbuf's front instead of growing the array.
	queue        []*Packet
	qbuf         []*Packet
	queuedBytes  int
	transmitting bool

	// inFlight is the packet occupying the transmitter, unless the
	// transmission is held; the transmitting flag guarantees at most
	// one. gateRetryFn/txDoneFn/heldDoneFn cache the hot-path event
	// closures (see gateRetry/txDone/heldDone).
	inFlight    *Packet
	gateRetryFn func()
	txDoneFn    func()
	heldDoneFn  func()

	// hold reserves a held transmission's completion (see Link). held is
	// set from kick until the transmission ends, claimed once a queued
	// packet has turned the completion into an event, and heldLost,
	// heldSize and heldQCI keep the loss the end counts.
	hold     sim.Hold
	held     bool
	claimed  bool
	heldLost bool
	heldSize int
	heldQCI  uint8

	// txSize, txRate and txDur memoize kick's last transmission time:
	// consecutive packets mostly share one size and one rate (over 93%
	// of transmissions on the testbed's DL air link and core bridge),
	// and the same inputs give the same float.
	txSize int
	txRate float64
	txDur  time.Duration

	// wire holds the packets on the wire: transmitted and
	// loss-checked, each delivered Delay after it was sent. Delay is
	// fixed per link, so their delivery times never decrease and one
	// FIFO stream carries them all under a single heap entry.
	wire *sim.FIFO[*Packet]

	// ended holds the background packets that BackgroundEnds retired
	// and Settle has not counted out yet, oldest first: Delay is
	// fixed, so their delivery times never decrease. It has no
	// scheduler entry.
	ended sim.Ring[endedPkt]

	// delayed counts the packets a fault injector holds on the wire
	// out of FIFO order (see send).
	delayed int

	// Per-QCI accounting for the metrics registry: offered, dropped
	// (queue, loss and fault drops combined) and delivered packets by
	// class. Flat arrays indexed by the full QCI byte keep the hot
	// path at one unconditional increment; PublishMetrics folds them
	// into the pre-registered per-class counters at a run boundary.
	qciEnq  [256]uint64
	qciDrop [256]uint64
	qciOut  [256]uint64

	published bool
}

// NewLink returns a ready link. Loss defaults to NoLoss.
func NewLink(name string, sched *sim.Scheduler, rateBps float64, delay time.Duration, queueBytes int, dst Node) *Link {
	l := &Link{
		Name:       name,
		Sched:      sched,
		RateBps:    rateBps,
		Delay:      delay,
		QueueBytes: queueBytes,
		Loss:       NoLoss{},
		Dst:        dst,
	}
	l.wire = sim.NewFIFO(sched, l.deliver)
	return l
}

// Recv implements Node: the link accepts the packet for transmission.
//
//tlcvet:hotpath per-packet ingress; enqueue/propagate/send/deliver are all reached from here
func (l *Link) Recv(pkt *Packet) {
	l.Stats.InPackets++
	l.Stats.InBytes += uint64(pkt.Size)
	l.qciEnq[pkt.QCI]++

	if l.RateBps <= 0 && l.Gate == nil {
		// Infinite-rate ungated link: pure delay + loss.
		l.propagate(pkt)
		return
	}

	if l.QueueBytes > 0 && l.queuedBytes+pkt.Size > l.QueueBytes {
		if !l.evictLowerPriority(pkt) {
			l.Stats.QueueDrops++
			l.Stats.QueueDropped += uint64(pkt.Size)
			l.qciDrop[pkt.QCI]++
			l.Pool.Put(pkt)
			return
		}
	}
	l.enqueue(pkt)
	l.kick()
}

// evictLowerPriority makes room for pkt by dropping strictly lower
// priority queued packets (higher QCI value) from the back of the
// queue. It reports whether enough room was freed; if not, it drops
// nothing.
//
// The queue is always sorted by QCI: enqueue inserts stably by class,
// and kick, DropQueuedFraction and this eviction only cut packets off
// its ends. So the packets with a QCI above pkt's form the queue's
// tail, and the scan from the back stops at the first packet it may
// not evict: no packet in front of that one is evictable either. The
// victims are the shortest tail that frees enough room, the same
// packets a scan of the whole queue would pick.
func (l *Link) evictLowerPriority(pkt *Packet) bool {
	need := l.queuedBytes + pkt.Size - l.QueueBytes
	if need <= 0 {
		return true
	}
	freed := 0
	i := len(l.queue)
	for i > 0 && freed < need && l.queue[i-1].QCI > pkt.QCI {
		i--
		freed += l.queue[i].Size
	}
	if freed < need {
		return false
	}
	for j, q := range l.queue[i:] {
		l.Stats.QueueDrops++
		l.Stats.QueueDropped += uint64(q.Size)
		l.qciDrop[q.QCI]++
		l.Pool.Put(q)
		l.queue[i+j] = nil
	}
	l.queue = l.queue[:i]
	l.queuedBytes -= freed
	return true
}

// enqueue inserts by QCI priority (stable within a class).
func (l *Link) enqueue(pkt *Packet) {
	if n := len(l.queue); n == cap(l.queue) && n < cap(l.qbuf) {
		// The window ends at the array's end but kick has advanced its
		// base: slide it back to the front rather than let append
		// reallocate. A backlogged link that never drains would
		// otherwise regrow its queue every few dozen packets.
		copy(l.qbuf, l.queue)
		clear(l.qbuf[n:])
		l.queue = l.qbuf[:n]
	}
	i := len(l.queue)
	for i > 0 && l.queue[i-1].QCI > pkt.QCI {
		i--
	}
	l.queue = append(l.queue, nil)
	if cap(l.queue) > cap(l.qbuf) {
		l.qbuf = l.queue[:cap(l.queue)]
	}
	copy(l.queue[i+1:], l.queue[i:])
	l.queue[i] = pkt
	l.queuedBytes += pkt.Size
}

// kick starts the transmitter if idle. A held transmission ends here
// once its key has passed; before that, a queued packet claims it.
func (l *Link) kick() {
	if l.held {
		if !l.Sched.Passed(&l.hold) {
			if len(l.queue) > 0 && !l.claimed {
				l.claimed = true
				l.Sched.Claim(&l.hold, l.heldDone())
			}
			return
		}
		l.endHeld()
	}
	if l.transmitting || len(l.queue) == 0 {
		return
	}
	if l.Gate != nil && !l.Gate(l.Sched.Now()) {
		// Gated closed: retry shortly. The RAN re-kicks links on
		// radio state changes, but polling keeps the model safe even
		// if it forgets.
		l.transmitting = true
		l.Sched.AfterPooled(10*time.Millisecond, l.gateRetry())
		return
	}
	pkt := l.queue[0]
	l.queue[0] = nil
	if len(l.queue) == 1 {
		// Drained: rewind the window to the backing array's start.
		// Re-slicing queue[:0] would keep the advanced base, so the
		// rewind has to go through qbuf.
		l.queue = l.qbuf[:0]
	} else {
		l.queue = l.queue[1:]
	}
	l.queuedBytes -= pkt.Size
	l.transmitting = true
	tx := time.Duration(0)
	if l.RateBps > 0 {
		rate := l.RateBps
		if l.RateScale != nil {
			scale := l.RateScale(l.Sched.Now())
			if scale < 0.01 {
				scale = 0.01
			}
			rate *= scale
		}
		if pkt.Size != l.txSize || rate != l.txRate {
			l.txSize, l.txRate = pkt.Size, rate
			l.txDur = time.Duration(float64(pkt.Size*8) / rate * float64(time.Second))
		}
		tx = l.txDur
	}
	if len(l.queue) == 0 && l.Inject == nil && l.Delay > 0 {
		l.holdTx(pkt, l.Sched.Now()+tx)
		return
	}
	l.inFlight = pkt
	l.Sched.AfterPooled(tx, l.txDone())
}

// holdTx settles, at its start, the transmission of pkt that ends at
// done, and holds its completion (see Link).
func (l *Link) holdTx(pkt *Packet, done sim.Time) {
	l.Sched.Hold(&l.hold, done)
	l.held, l.claimed = true, false
	l.heldLost = l.Loss != nil && l.Loss.Drop(pkt, done)
	if l.heldLost {
		l.heldSize, l.heldQCI = pkt.Size, pkt.QCI
		l.Pool.Put(pkt)
		return
	}
	l.send(pkt, done, 0)
}

// endHeld ends the held transmission: the transmitter idles, and a
// loss counts now, as the completion would have counted it.
func (l *Link) endHeld() {
	l.held, l.claimed, l.transmitting = false, false, false
	if l.heldLost {
		l.Stats.LossDrops++
		l.Stats.LossDropped += uint64(l.heldSize)
		l.qciDrop[l.heldQCI]++
	}
}

// gateRetry, txDone and heldDone return per-link closures that are
// allocated once and reused for every transmission, so the events on
// the per-packet hot path cost neither an Event nor a closure
// allocation.
func (l *Link) gateRetry() func() {
	if l.gateRetryFn == nil {
		//tlcvet:allow hotalloc — allocated once per link on first use, then cached in gateRetryFn
		l.gateRetryFn = func() {
			l.transmitting = false
			l.kick()
		}
	}
	return l.gateRetryFn
}

func (l *Link) txDone() func() {
	if l.txDoneFn == nil {
		//tlcvet:allow hotalloc — allocated once per link on first use, then cached in txDoneFn
		l.txDoneFn = func() {
			pkt := l.inFlight
			l.inFlight = nil
			l.transmitting = false
			l.propagate(pkt)
			l.kick()
		}
	}
	return l.txDoneFn
}

// heldDone is a claimed hold's completion: the held transmission ends
// at its reserved key and the queued packet starts.
func (l *Link) heldDone() func() {
	if l.heldDoneFn == nil {
		//tlcvet:allow hotalloc — allocated once per link on first use, then cached in heldDoneFn
		l.heldDoneFn = func() {
			l.endHeld()
			l.kick()
		}
	}
	return l.heldDoneFn
}

// propagate applies the loss model and delivers after Delay.
func (l *Link) propagate(pkt *Packet) {
	now := l.Sched.Now()
	if l.Loss != nil && l.Loss.Drop(pkt, now) {
		l.Stats.LossDrops++
		l.Stats.LossDropped += uint64(pkt.Size)
		l.qciDrop[pkt.QCI]++
		l.Pool.Put(pkt)
		return
	}
	if l.Inject != nil {
		act := l.Inject.Apply(pkt, now)
		if act.Drop {
			l.Stats.FaultDrops++
			l.Stats.FaultDropped += uint64(pkt.Size)
			l.qciDrop[pkt.QCI]++
			l.Pool.Put(pkt)
			return
		}
		if act.Duplicate {
			l.Stats.FaultDups++
			dup := l.Pool.Get()
			*dup = *pkt
			l.send(dup, now, 0)
		}
		if act.ExtraDelay > 0 {
			l.Stats.FaultDelays++
			l.send(pkt, now, act.ExtraDelay)
			return
		}
	}
	l.send(pkt, now, 0)
}

// send puts the packet, whose transmission ends at done, on the wire.
// extra == 0 is the normal path and rides the link's FIFO stream,
// unless BackgroundEnds ends the packet here. extra > 0 (a fault's
// reorder hold or delay spike) deliberately breaks the link's FIFO
// order, so it must bypass the stream, whose fire times may never
// decrease. Those packets get a dedicated per-packet closure event
// instead, timed from now: a link with an injector holds no
// transmission, so done is now. The allocation only happens on
// faulted packets.
func (l *Link) send(pkt *Packet, done sim.Time, extra time.Duration) {
	if l.ended.Len() > 0 {
		l.Settle()
	}
	switch {
	case extra > 0:
		p := pkt
		l.delayed++
		//tlcvet:allow hotalloc — out-of-FIFO delivery must bypass the stream (see doc comment); only faulted packets pay this closure
		l.Sched.After(l.Delay+extra, func() {
			l.delayed--
			l.deliver(p)
		})
	case l.Delay <= 0:
		l.deliver(pkt)
	case pkt.Background && l.BackgroundEnds:
		l.end(pkt, done+l.Delay)
	default:
		l.wire.Push(done+l.Delay, pkt)
	}
}

// endedPkt is what a link keeps of a background packet it ended at
// the transmitter: when the packet would have reached Dst, and what
// to count then.
type endedPkt struct {
	at   sim.Time
	size int
	qci  uint8
}

// end retires a background packet at the transmitter (see
// BackgroundEnds): Settle counts it out at its delivery time at, and
// the struct goes back to the pool now.
func (l *Link) end(pkt *Packet, at sim.Time) {
	l.ended.Push(endedPkt{at: at, size: pkt.Size, qci: pkt.QCI})
	l.Pool.Put(pkt)
}

// Settle ends a held transmission whose key the clock has passed and
// counts out, as deliver would have, every packet BackgroundEnds ended
// whose delivery time is not after now, so that Stats and the per-QCI
// counters are current. InFlight, Backlog and PublishMetrics call it.
func (l *Link) Settle() {
	if l.held && l.Sched.Passed(&l.hold) {
		l.endHeld()
	}
	now := l.Sched.Now()
	for l.ended.Len() > 0 && l.ended.Front().at <= now {
		e := l.ended.PopFront()
		l.Stats.OutPackets++
		l.Stats.OutBytes += uint64(e.size)
		l.Stats.Ended++
		l.qciOut[e.qci]++
	}
}

// deliver hands the packet to the destination, counting it out.
func (l *Link) deliver(pkt *Packet) {
	l.Stats.OutPackets++
	l.Stats.OutBytes += uint64(pkt.Size)
	l.qciOut[pkt.QCI]++
	if l.Dst != nil {
		l.Dst.Recv(pkt)
	}
}

// InFlight returns the number of packets transmitted and not yet
// delivered: those on the wire, those a fault injector delays out of
// FIFO order, and the ended background packets whose delivery time has
// not passed (see BackgroundEnds). A held transmission's packet sits
// on the wire or among the ended packets from its start but counts in
// Backlog until its end. InFlight runs Settle first, so that between
// events Stats and InFlight read as they would if every packet rode
// the wire and every transmission fired its completion.
func (l *Link) InFlight() int {
	l.Settle()
	n := l.wire.Len() + l.delayed + l.ended.Len()
	if l.held && !l.heldLost {
		n--
	}
	return n
}

// Backlog returns the number of packets the link holds before the
// wire: those queued plus the one in the transmitter. It runs Settle
// first. Between events, InPackets + FaultDups = OutPackets +
// QueueDrops + LossDrops + FaultDrops + InFlight() + Backlog().
func (l *Link) Backlog() int {
	l.Settle()
	if l.inFlight != nil || l.held {
		return len(l.queue) + 1
	}
	return len(l.queue)
}

// Kick re-evaluates the transmitter; the RAN calls it when a gate
// opens so buffered packets flush immediately.
func (l *Link) Kick() { l.kick() }

// DropQueuedFraction discards the given fraction of queued bytes from
// the back of the queue (newest first), counting them as queue drops.
// The RAN's handover model uses it for source-cell buffer loss.
func (l *Link) DropQueuedFraction(frac float64) (packets, bytes uint64) {
	if frac <= 0 || len(l.queue) == 0 {
		return 0, 0
	}
	target := int(float64(l.queuedBytes) * frac)
	dropped := 0
	i := len(l.queue)
	for i > 0 && dropped < target {
		i--
		q := l.queue[i]
		dropped += q.Size
		packets++
		bytes += uint64(q.Size)
		l.Stats.QueueDrops++
		l.Stats.QueueDropped += uint64(q.Size)
		l.qciDrop[q.QCI]++
		l.Pool.Put(q)
	}
	for j := i; j < len(l.queue); j++ {
		l.queue[j] = nil
	}
	l.queue = l.queue[:i]
	l.queuedBytes -= dropped
	return packets, bytes
}
