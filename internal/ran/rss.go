// Package ran emulates the LTE radio access network: the received
// signal strength (RSS) process, the radio link with RSS-driven loss
// and outage gating, radio-link-failure detection feeding the core's
// detach logic, and the base station's RRC procedures — including the
// COUNTER CHECK exchange TLC uses as its tamper-resilient downlink
// charging record (§5.4).
package ran

import (
	"sort"
	"time"

	"tlc/internal/sim"
)

// RSSModel produces the received signal strength (dBm) over time.
type RSSModel interface {
	RSS(now sim.Time) float64
}

// ConstantRSS is a time-invariant signal strength.
type ConstantRSS float64

// RSS implements RSSModel.
func (c ConstantRSS) RSS(sim.Time) float64 { return float64(c) }

// Interval is a half-open time interval.
type Interval struct {
	Start sim.Time
	End   sim.Time
}

// Contains reports whether t is inside the interval.
func (iv Interval) Contains(t sim.Time) bool { return t >= iv.Start && t < iv.End }

// OutageRSS models intermittent wireless connectivity (§3.2, Figure 4):
// the signal sits at Base dBm, interrupted by outages during which it
// drops to Depth dBm. Outage gaps and durations are exponentially
// distributed, reproducing the paper's "average wireless
// dis-connectivity duration is 1.93s" regime and the η sweeps of
// Figure 14.
type OutageRSS struct {
	Base    float64
	Depth   float64
	outages []Interval
}

// NewOutageRSS precomputes an outage schedule over [0, horizon).
// meanGap is the mean in-coverage time between outages and meanOutage
// the mean outage duration.
func NewOutageRSS(base, depth float64, meanGap, meanOutage, horizon time.Duration, rng *sim.RNG) *OutageRSS {
	o := &OutageRSS{Base: base, Depth: depth}
	if meanOutage <= 0 || meanGap <= 0 {
		return o
	}
	t := sim.Time(0)
	for t < horizon {
		gap := rng.Exp(meanGap)
		if gap < 50*time.Millisecond {
			gap = 50 * time.Millisecond
		}
		start := t + gap
		dur := rng.Exp(meanOutage)
		if dur < 20*time.Millisecond {
			dur = 20 * time.Millisecond
		}
		end := start + dur
		if start >= horizon {
			break
		}
		if end > horizon {
			end = horizon
		}
		o.outages = append(o.outages, Interval{Start: start, End: end})
		t = end
	}
	return o
}

// RSS implements RSSModel.
func (o *OutageRSS) RSS(now sim.Time) float64 {
	i := sort.Search(len(o.outages), func(i int) bool { return o.outages[i].End > now })
	if i < len(o.outages) && o.outages[i].Contains(now) {
		return o.Depth
	}
	return o.Base
}

// Signal-quality thresholds used across the RAN model, in dBm.
const (
	// GoodRSS is the paper's "good radio" threshold (§3.2: RSS ≥ -95dBm).
	GoodRSS = -95.0
	// NoServiceRSS is the level below which the device is out of
	// sync with the base station: no uplink or downlink service.
	NoServiceRSS = -120.0
)

// LossProb maps instantaneous RSS to an air-interface packet loss
// probability. LTE's HARQ/RLC retransmissions recover most physical-
// layer errors, so at any usable signal level the IP-visible loss is
// the residual rate (UDP streams over LTE are not lossless; the
// paper measures 6.7-8.3% gaps even in good radio). Below the
// no-service threshold nothing gets through. Weak-but-usable signal
// instead reduces the achievable *rate* — see MCSFactor — which is
// why "weak signal does not always result in charging gaps" (§3.2).
func LossProb(rss, residual float64) float64 {
	if rss <= NoServiceRSS {
		return 1
	}
	return residual
}

// MCSFactor maps instantaneous RSS to the fraction of the nominal
// air-interface rate a UE achieves: modulation-and-coding adaptation
// gives full rate in good signal and a steeply lower rate toward the
// cell edge (a cubic roll-off approximating LTE MCS tables).
func MCSFactor(rss float64) float64 {
	if rss >= GoodRSS {
		return 1
	}
	if rss <= NoServiceRSS {
		return 0
	}
	frac := (rss - NoServiceRSS) / (GoodRSS - NoServiceRSS)
	return frac * frac * frac
}
