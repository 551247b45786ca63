package netem

import (
	"strconv"

	"tlc/internal/metrics"
)

// Registry instruments for the packet substrate. The per-packet hot
// path keeps counting into each Link's plain LinkStats and per-QCI
// arrays — single-scheduler code needs no atomics — and PublishMetrics
// flushes once at a run boundary. QCI label sets are pre-registered
// (classes 1–9 plus "other"), never formatted per packet.
const qciClasses = 9 // LTE QCI 1..9; everything else lands in "other"

type qciCounters [qciClasses + 1]*metrics.Counter // [0] = "other"

func newQCICounters(name, help string) qciCounters {
	var out qciCounters
	out[0] = metrics.Default.Counter(name+`{qci="other"}`, help)
	for q := 1; q <= qciClasses; q++ {
		out[q] = metrics.Default.Counter(name+`{qci="`+strconv.Itoa(q)+`"}`, help)
	}
	return out
}

// add flushes a per-link [256] QCI array into the registry counters.
func (qc qciCounters) add(byQCI *[256]uint64) {
	for q, n := range byQCI {
		if n == 0 {
			continue
		}
		if q >= 1 && q <= qciClasses {
			qc[q].Add(n)
		} else {
			qc[0].Add(n)
		}
	}
}

var (
	mLinkEnq = newQCICounters("netem_link_enqueued_packets_total",
		"packets offered to a link for transmission, by QCI class")
	mLinkDrop = newQCICounters("netem_link_dropped_packets_total",
		"packets dropped by a link (queue overflow, loss model, injected faults), by QCI class")
	mLinkOut = newQCICounters("netem_link_delivered_packets_total",
		"packets delivered by a link to its destination, by QCI class")
	mLinkInFlight = metrics.Default.Gauge("netem_link_in_flight_packets",
		"packets on the wire (transmitted, not yet delivered) at last publish")
	mLinkBacklog = metrics.Default.Gauge("netem_link_queued_packets",
		"packets in a link's queue or transmitter at last publish")
	mPoolGets = metrics.Default.Counter("netem_pool_gets_total",
		"packet structs drawn from a PacketPool")
	mPoolReuses = metrics.Default.Counter("netem_pool_reuses_total",
		"packet draws served from the pool free list instead of the heap")
	mPoolDrops = metrics.Default.Counter("netem_pool_drops_total",
		"packets discarded at Put because the pool free list was at capacity")
	mLoadDropped = metrics.Default.Counter("netem_load_dropped_packets_total",
		"packets dropped by the congestion LoadDropper")
	mLoadForwarded = metrics.Default.Counter("netem_load_forwarded_packets_total",
		"packets forwarded by the congestion LoadDropper")
	mLanePackets = metrics.Default.Counter("netem_lane_packets_total",
		"packets sent across shard exchange lanes")
	mLaneBytes = metrics.Default.Counter("netem_lane_bytes_total",
		"bytes sent across shard exchange lanes")
	mInboxPackets = metrics.Default.Counter("netem_inbox_arrivals_total",
		"cross-shard packets delivered into destination partitions")
	mInboxBytes = metrics.Default.Counter("netem_inbox_arrival_bytes_total",
		"cross-shard bytes delivered into destination partitions")
)

// PublishMetrics flushes the link's cumulative counters into the
// process metrics registry. Call it once, at the end of a run; later
// calls are no-ops (a link's counters are never reset).
func (l *Link) PublishMetrics() {
	if l == nil || l.published {
		return
	}
	l.published = true
	l.Settle()
	mLinkEnq.add(&l.qciEnq)
	mLinkDrop.add(&l.qciDrop)
	mLinkOut.add(&l.qciOut)
	mLinkInFlight.Add(int64(l.InFlight()))
	mLinkBacklog.Add(int64(l.Backlog()))
}

// PublishMetrics flushes the dropper's counters into the process
// metrics registry, once.
func (d *LoadDropper) PublishMetrics() {
	if d == nil || d.published {
		return
	}
	d.published = true
	mLoadDropped.Add(d.Dropped)
	mLoadForwarded.Add(d.Forwarded)
}

// PublishMetrics flushes the lane's counters into the process metrics
// registry, once. Like every publisher it runs only at a run boundary
// (the two-tier rule): the lane's hot path touches only its own plain
// LaneStats.
func (l *Lane) PublishMetrics() {
	if l == nil || l.published {
		return
	}
	l.published = true
	mLanePackets.Add(l.Stats.Packets)
	mLaneBytes.Add(l.Stats.Bytes)
}

// PublishMetrics flushes the inbox's counters into the process metrics
// registry, once.
func (ib *Inbox) PublishMetrics() {
	if ib == nil || ib.published {
		return
	}
	ib.published = true
	mInboxPackets.Add(ib.Stats.Packets)
	mInboxBytes.Add(ib.Stats.Bytes)
}

// PublishMetrics flushes the pool's counters into the process metrics
// registry, once.
func (pp *PacketPool) PublishMetrics() {
	if pp == nil || pp.published {
		return
	}
	pp.published = true
	mPoolGets.Add(pp.Gets)
	mPoolReuses.Add(pp.Reuses)
	mPoolDrops.Add(pp.Drops)
}
