package netem

import (
	"time"

	"tlc/internal/sim"
)

// Meter counts the bytes passing a point in the network and
// keeps a binned time series so that usage can later be queried over
// an arbitrary (possibly clock-skewed) window. Both the operator's
// gateway charging function and the edge vendor's app monitors are
// built on Meter.
type Meter struct {
	Name string

	sched    *sim.Scheduler
	binWidth time.Duration
	bins     []float64 // bytes per bin
	bytes    uint64

	// Filter selects which packets are counted; nil counts all
	// non-background packets.
	Filter func(*Packet) bool

	// Next optionally forwards the packet on, so a Meter can be
	// spliced into a path.
	Next Node
}

// DefaultBinWidth is the metering resolution. The paper records usage
// every 1s (§3.2); we bin at 100ms so that sub-second clock skews
// still resolve in windowed queries.
const DefaultBinWidth = 100 * time.Millisecond

// NewMeter returns a meter with the default bin width.
func NewMeter(name string, sched *sim.Scheduler, next Node) *Meter {
	return &Meter{Name: name, sched: sched, binWidth: DefaultBinWidth, Next: next}
}

// Recv implements Node.
func (m *Meter) Recv(pkt *Packet) {
	counted := false
	if m.Filter != nil {
		counted = m.Filter(pkt)
	} else {
		counted = !pkt.Background
	}
	if counted {
		m.record(m.sched.Now(), pkt.Size)
	}
	if m.Next != nil {
		m.Next.Recv(pkt)
	}
}

// Reserve pre-sizes the bin series for a cycle of the given length,
// so steady-state metering never grows the slice. Callers that know
// the cycle duration (the testbed, the gateway) reserve up front;
// metering past the reservation still works and grows amortised.
func (m *Meter) Reserve(horizon time.Duration) {
	n := int(horizon/m.binWidth) + 1
	if n > cap(m.bins) {
		nb := make([]float64, len(m.bins), n)
		copy(nb, m.bins)
		m.bins = nb
	}
}

func (m *Meter) record(now sim.Time, size int) {
	m.bytes += uint64(size)
	idx := int(now / m.binWidth)
	if idx >= len(m.bins) {
		// Grow geometrically instead of one bin at a time: extending
		// within capacity is free, and a fresh backing array doubles
		// so a cycle performs O(log n) bin allocations.
		if idx < cap(m.bins) {
			m.bins = m.bins[:idx+1]
		} else {
			newCap := 2 * cap(m.bins)
			if newCap < idx+1 {
				newCap = idx + 1
			}
			nb := make([]float64, idx+1, newCap)
			copy(nb, m.bins)
			m.bins = nb
		}
	}
	m.bins[idx] += float64(size)
}

// TotalBytes returns the total bytes counted.
func (m *Meter) TotalBytes() uint64 { return m.bytes }

// BytesInWindow returns the bytes counted in [start, end), linearly
// interpolating partial bins at the window edges. This is how a party
// whose clock is skewed observes a charging cycle: it integrates the
// same traffic over a shifted window.
func (m *Meter) BytesInWindow(start, end sim.Time) float64 {
	if end <= start || len(m.bins) == 0 {
		return 0
	}
	if start < 0 {
		start = 0
	}
	total := 0.0
	startBin := int(start / m.binWidth)
	endBin := int(end / m.binWidth)
	for i := startBin; i <= endBin && i < len(m.bins); i++ {
		binStart := time.Duration(i) * m.binWidth
		binEnd := binStart + m.binWidth
		overlapStart := maxDur(binStart, start)
		overlapEnd := minDur(binEnd, end)
		if overlapEnd <= overlapStart {
			continue
		}
		frac := float64(overlapEnd-overlapStart) / float64(m.binWidth)
		total += m.bins[i] * frac
	}
	return total
}

// SeriesMB returns per-interval megabytes for plotting time-series
// figures (Figure 4). The interval must be a multiple of the bin
// width.
func (m *Meter) SeriesMB(interval time.Duration, until sim.Time) []float64 {
	if interval < m.binWidth {
		interval = m.binWidth
	}
	n := int(until / interval)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Duration(i) * interval
		out[i] = m.BytesInWindow(start, start+interval) / 1e6
	}
	return out
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// TrafficSource emits fixed-size packets at a constant bit rate; it
// models the iperf UDP background traffic used throughout §7 as well
// as simple CBR application flows.
type TrafficSource struct {
	Sched      *sim.Scheduler
	IDs        *IDGen
	Dst        Node
	Flow       string
	IMSI       string
	QCI        uint8
	Dir        Direction
	RateBps    float64
	PacketSize int
	Background bool
	Jitter     float64 // fraction of the inter-packet gap, uniform +/-
	RNG        *sim.RNG

	// Pool optionally recycles emitted packets; wire the same pool
	// into the terminal sinks and drop sites downstream.
	Pool *PacketPool

	stopped bool
	emitFn  func() // bound emit closure, allocated once
}

// Start begins emission at the given simulated time.
func (t *TrafficSource) Start(at sim.Time) {
	if t.PacketSize <= 0 {
		t.PacketSize = 1400
	}
	if t.RateBps <= 0 {
		return
	}
	t.emitFn = t.emit
	t.Sched.AtPooled(at, t.emitFn)
}

// Stop halts emission after the next scheduled packet.
func (t *TrafficSource) Stop() { t.stopped = true }

func (t *TrafficSource) emit() {
	if t.stopped {
		return
	}
	pkt := t.Pool.Get()
	pkt.ID = t.IDs.Next()
	pkt.Flow = t.Flow
	pkt.IMSI = t.IMSI
	pkt.QCI = t.QCI
	pkt.Size = t.PacketSize
	pkt.Dir = t.Dir
	pkt.Sent = t.Sched.Now()
	pkt.Background = t.Background
	t.Dst.Recv(pkt)
	gap := time.Duration(float64(t.PacketSize*8) / t.RateBps * float64(time.Second))
	if t.Jitter > 0 && t.RNG != nil {
		gap = time.Duration(float64(gap) * (1 + t.RNG.Uniform(-t.Jitter, t.Jitter)))
		if gap <= 0 {
			gap = time.Microsecond
		}
	}
	t.Sched.AfterPooled(gap, t.emitFn)
}
