package netem

import (
	"time"

	"tlc/internal/sim"
)

// LoadDropper models a congested shared resource (the virtualised EPC
// host plus cell processing in the paper's testbed) as a fluid
// priority scheduler: it estimates the offered load per QoS class
// over short windows and drops packets probabilistically as
// utilisation approaches and exceeds capacity.
//
// Strict drop-tail sharing starves a low-rate flow almost completely
// under persistent overload (the queue is always full when its sparse
// bursts arrive), which is much harsher than the graceful degradation
// the paper measures (~8% → ~25-30% gap as background traffic grows
// to 160 Mbps). A load-proportional model matches LTE behaviour:
// losses grow smoothly with utilisation and respect QCI priority —
// class p only competes with classes of equal or higher priority.
type LoadDropper struct {
	Sched       *sim.Scheduler
	CapacityBps float64
	Next        Node
	RNG         *sim.RNG

	// Pool optionally recycles packets the dropper discards.
	Pool *PacketPool

	// Onset is the utilisation at which losses start (default 0.5).
	Onset float64
	// MaxSoftLoss is the loss probability as utilisation reaches 1
	// (default 0.22); beyond that the stationary floor 1 - 1/u
	// applies.
	MaxSoftLoss float64
	// Window is the rate-estimation bin (default 100ms).
	Window time.Duration

	// binBytes accumulates the current bin's offered bytes per QCI
	// and rateBps holds the EWMA offered rate per QCI. QCI is a
	// byte, so these are flat arrays rather than maps: Recv runs once
	// per packet and must not pay for map accesses or iteration.
	binBytes [256]float64
	rateBps  [256]float64
	// cumRate[q] is rateBps summed over classes 0..q (higher-or-equal
	// priority), refreshed once per estimation window so utilization
	// is O(1) on the per-packet path.
	cumRate [256]float64
	// dropP[q] is DropProb(q) for every class seen so far. DropProb
	// reads only cumRate and the fixed parameters, so refreshCum
	// recomputes it and Recv reads it: the same float, once per
	// window instead of once per packet.
	dropP [256]float64
	// active lists the QCIs seen so far; the ticker only walks these.
	active []uint8
	seen   [256]bool

	Dropped   uint64
	Forwarded uint64

	started   bool
	published bool
}

// NewLoadDropper returns a dropper with default parameters.
func NewLoadDropper(sched *sim.Scheduler, capacityBps float64, next Node, rng *sim.RNG) *LoadDropper {
	return &LoadDropper{
		Sched:       sched,
		CapacityBps: capacityBps,
		Next:        next,
		RNG:         rng,
		Onset:       0.5,
		MaxSoftLoss: 0.22,
		Window:      100 * time.Millisecond,
	}
}

// Start begins the rate-estimation ticker; it must be called before
// the simulation runs.
func (d *LoadDropper) Start() {
	if d.started {
		return
	}
	d.started = true
	const alpha = 0.3
	d.Sched.Ticker(d.Window, d.Window, func(sim.Time) {
		secs := d.Window.Seconds()
		for _, qci := range d.active {
			inst := d.binBytes[qci] * 8 / secs
			d.rateBps[qci] = alpha*inst + (1-alpha)*d.rateBps[qci]
			d.binBytes[qci] = 0
		}
		d.refreshCum()
	})
}

// refreshCum recomputes the priority-prefix sums of rateBps and the
// active classes' drop probabilities.
func (d *LoadDropper) refreshCum() {
	var cum float64
	for q := 0; q < 256; q++ {
		cum += d.rateBps[q]
		d.cumRate[q] = cum
	}
	for _, q := range d.active {
		d.dropP[q] = d.DropProb(q)
	}
}

// utilization returns the offered load from classes with priority >=
// the given class (numerically QCI <= qci) relative to capacity.
func (d *LoadDropper) utilization(qci uint8) float64 {
	if d.CapacityBps <= 0 {
		return 0
	}
	return d.cumRate[qci] / d.CapacityBps
}

// DropProb returns the current drop probability for a class.
func (d *LoadDropper) DropProb(qci uint8) float64 {
	u := d.utilization(qci)
	p := 0.0
	if u > d.Onset && d.Onset < 1 {
		frac := (u - d.Onset) / (1 - d.Onset)
		if frac > 1 {
			frac = 1
		}
		p = d.MaxSoftLoss * frac * frac
	}
	if u > 1 {
		// Stationary floor: the resource physically cannot carry
		// more than its capacity.
		if floor := 1 - 1/u; floor > p {
			p = floor
		}
	}
	return p
}

// Recv implements Node.
func (d *LoadDropper) Recv(p *Packet) {
	if !d.seen[p.QCI] {
		d.seen[p.QCI] = true
		d.active = append(d.active, p.QCI)
		d.dropP[p.QCI] = d.DropProb(p.QCI)
	}
	d.binBytes[p.QCI] += float64(p.Size)
	if d.RNG != nil && d.RNG.Float64() < d.dropP[p.QCI] {
		d.Dropped++
		d.Pool.Put(p)
		return
	}
	d.Forwarded++
	if d.Next != nil {
		d.Next.Recv(p)
	}
}
