// Package faults is the deterministic fault-injection subsystem: a
// seeded description of network, stream and component faults that
// composes with the internal/sim scheduler. Every random choice is
// drawn from a sim.RNG fork, so one (seed, Spec) pair replays the
// exact same fault schedule — byte-identical traces and metrics — on
// every run and at any sweep worker count.
//
// The Spec families (see DESIGN.md's fault matrix):
//
//   - network: burst loss, duplication, reordering and delay spikes
//     applied per packet on a netem.Link (NetFaults);
//   - stream: a corrupting/truncating/stalling wrapper for the
//     negotiation transport (Conn);
//   - component: OFCS crash/restart with a CDR loss window and SPGW
//     meter restart mid-cycle (scheduled by the experiment testbed
//     from the same Spec).
//
// The simulator builds its Specs in code. Parse reads only the stream
// keys, the one family cmd/tlcd's -faults flag applies. The
// adversarial family, a byzantine negotiation peer, is
// protocol.Byzantine, which the faults experiment drives directly.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Spec describes one fault plan. The zero value injects nothing.
type Spec struct {
	// Network faults, applied per packet on an injected link.

	// BurstP is the per-packet probability of entering a loss burst;
	// BurstLen is the mean burst length in packets (geometric).
	BurstP   float64
	BurstLen float64
	// DupP duplicates a packet with this probability.
	DupP float64
	// ReorderP holds a packet back by reorderDelay so it overtakes
	// nothing but is overtaken by its successors.
	ReorderP float64
	// SpikeP adds a spikeDelay latency spike to a packet.
	SpikeP float64

	// Component faults, scheduled on the cycle's simulated clock.

	// OFCSCrashAt crashes the charging collector at this cycle time
	// (zero = never); records collected within the trailing
	// CDRLossWindow are lost, and the OFCS stays down for
	// OFCSDowntime before restarting.
	OFCSCrashAt   time.Duration
	OFCSDowntime  time.Duration
	CDRLossWindow time.Duration
	// SPGWRestartAt restarts the gateway's in-memory meters at this
	// cycle time (zero = never), losing un-flushed usage.
	SPGWRestartAt time.Duration

	// Stream faults, applied by the Conn wrapper on the negotiation
	// transport.

	// CorruptP flips one byte per read with this probability.
	CorruptP float64
	// TruncateP abandons a write halfway and closes the transport.
	TruncateP float64
	// StallP stalls a write for StallFor before it proceeds.
	StallP   float64
	StallFor time.Duration
}

// Defaults for the secondary knobs when their primary probability or
// schedule is set.
const (
	DefaultBurstLen      = 8.0
	DefaultOFCSDowntime  = 5 * time.Second
	DefaultCDRLossWindow = 2 * time.Second
	DefaultStallFor      = 50 * time.Millisecond
)

// The extra latency a reorder hold and a latency spike add.
const (
	reorderDelay = 20 * time.Millisecond
	spikeDelay   = 200 * time.Millisecond
)

// WithDefaults returns the spec with unset secondary knobs filled in.
func (s Spec) WithDefaults() Spec {
	if s.BurstLen <= 0 {
		s.BurstLen = DefaultBurstLen
	}
	if s.OFCSDowntime <= 0 {
		s.OFCSDowntime = DefaultOFCSDowntime
	}
	if s.CDRLossWindow <= 0 {
		s.CDRLossWindow = DefaultCDRLossWindow
	}
	if s.StallFor <= 0 {
		s.StallFor = DefaultStallFor
	}
	return s
}

// NetworkActive reports whether any per-packet link fault is enabled.
func (s Spec) NetworkActive() bool {
	return s.BurstP > 0 || s.DupP > 0 || s.ReorderP > 0 || s.SpikeP > 0
}

// ComponentActive reports whether any EPC component fault is
// scheduled.
func (s Spec) ComponentActive() bool {
	return s.OFCSCrashAt > 0 || s.SPGWRestartAt > 0
}

// StreamActive reports whether any stream-wrapper fault is enabled.
func (s Spec) StreamActive() bool {
	return s.CorruptP > 0 || s.TruncateP > 0 || s.StallP > 0
}

// Zero reports whether the spec injects nothing at all.
func (s Spec) Zero() bool {
	return !s.NetworkActive() && !s.ComponentActive() && !s.StreamActive()
}

// Parse builds the stream faults of a Spec from cmd/tlcd's -faults
// syntax, comma-separated key=value pairs, e.g.
// "corrupt=0.01,truncate=0.02,stall=0.05,stallfor=20ms". corrupt,
// truncate and stall take a probability in [0,1]; stallfor takes a Go
// duration. Any other key is an error: a key the caller would not act
// on must not parse as if it would.
func Parse(s string) (Spec, error) {
	var out Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return out, nil
	}
	probs := map[string]*float64{
		"corrupt":  &out.CorruptP,
		"truncate": &out.TruncateP,
		"stall":    &out.StallP,
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch {
		case probs[key] != nil:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return Spec{}, fmt.Errorf("faults: %s=%q is not a probability in [0,1]", key, val)
			}
			*probs[key] = f
		case key == "stallfor":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Spec{}, fmt.Errorf("faults: %s=%q is not a non-negative duration", key, val)
			}
			out.StallFor = d
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q (want corrupt, truncate, stall or stallfor)", key)
		}
	}
	return out, nil
}
