package faults

import (
	"math"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// maxBurst caps a single loss burst so a pathological geometric draw
// cannot black-hole a whole cycle.
const maxBurst = 1024

// NetFaults implements netem.FaultInjector: seeded burst loss,
// duplication, reordering and delay spikes, drawn per packet in a
// fixed order so a (seed, Spec) pair replays identically. One
// NetFaults instance serves exactly one link (it owns per-link burst
// state and its RNG fork).
type NetFaults struct {
	spec  Spec
	rng   *sim.RNG
	trace *Trace
	label string

	burstLeft int // packets still to drop in the current burst
	published bool

	// Counters mirror the link's fault stats but survive link resets
	// and carry the injector's own view for traces/metrics.
	Drops  uint64
	Dups   uint64
	Holds  uint64 // reorder holds
	Spikes uint64
}

// NewNetFaults builds an injector for one link. rng must be a
// dedicated fork; trace may be nil; label names the link in trace
// lines.
func NewNetFaults(spec Spec, rng *sim.RNG, trace *Trace, label string) *NetFaults {
	return &NetFaults{spec: spec.WithDefaults(), rng: rng, trace: trace, label: label}
}

// Apply implements netem.FaultInjector. Draw order is fixed —
// burst-entry, duplicate, spike, reorder — and every branch either
// draws exactly its own randomness or none (Bernoulli consumes no
// draw for p<=0), so enabling one fault family never shifts another
// family's stream.
func (nf *NetFaults) Apply(pkt *netem.Packet, now sim.Time) netem.FaultAction {
	var act netem.FaultAction

	if nf.burstLeft > 0 {
		nf.burstLeft--
		nf.Drops++
		act.Drop = true
		return act
	}
	if nf.rng.Bernoulli(nf.spec.BurstP) {
		// Entered a burst: this packet drops, and a geometric tail
		// with mean BurstLen-1 extra packets follows.
		nf.burstLeft = nf.geometricTail()
		nf.Drops++
		nf.trace.Addf(now, "%s burst drop id=%d len=%d", nf.label, pkt.ID, nf.burstLeft+1)
		act.Drop = true
		return act
	}

	if nf.rng.Bernoulli(nf.spec.DupP) {
		nf.Dups++
		nf.trace.Addf(now, "%s dup id=%d", nf.label, pkt.ID)
		act.Duplicate = true
	}

	if nf.rng.Bernoulli(nf.spec.SpikeP) {
		nf.Spikes++
		nf.trace.Addf(now, "%s spike id=%d +%s", nf.label, pkt.ID, spikeDelay)
		act.ExtraDelay = spikeDelay
	} else if nf.rng.Bernoulli(nf.spec.ReorderP) {
		nf.Holds++
		nf.trace.Addf(now, "%s hold id=%d +%s", nf.label, pkt.ID, reorderDelay)
		act.ExtraDelay = reorderDelay
	}
	return act
}

// geometricTail draws the number of additional packets lost after a
// burst begins: geometric with mean BurstLen-1, capped at maxBurst.
func (nf *NetFaults) geometricTail() int {
	mean := nf.spec.BurstLen - 1
	if mean <= 0 {
		return 0
	}
	// Inverse-CDF geometric: floor(ln(U)/ln(1-1/mean-ish)). Using the
	// continuous exponential keeps it one draw.
	u := nf.rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := int(-math.Log(u) * mean)
	if n > maxBurst {
		n = maxBurst
	}
	return n
}
