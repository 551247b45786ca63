package epc

import (
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// Policer enforces the post-quota speed limit of the "unlimited" data
// plans in §2.1: once the OFCS reports the quota exceeded, the
// subscriber's traffic is rate-limited (e.g. to 128Kbps) with a token
// bucket at the gateway. Policed drops happen *before* metering — the
// operator does not charge traffic its own policer discarded.
type Policer struct {
	Sched *sim.Scheduler
	// Next receives conforming packets.
	Next netem.Node

	// BurstBytes is the token bucket depth; default one second of
	// the configured rate.
	BurstBytes float64

	rateBps    float64
	tokens     float64
	lastRefill sim.Time
	active     bool

	Dropped      uint64
	DroppedBytes uint64
}

// NewPolicer returns an inactive policer (everything passes until
// Throttle is called).
//
//tlcvet:allow unreached — §2.1 quota-to-throttle reproduction, which only go test ./internal/epc -run Quota runs
func NewPolicer(sched *sim.Scheduler, next netem.Node) *Policer {
	return &Policer{Sched: sched, Next: next}
}

// Throttle activates the rate limit; wire it to
// OFCS.OnQuotaExceeded.
//
//tlcvet:allow unreached — §2.1 quota-to-throttle reproduction, which only go test ./internal/epc -run Quota runs
func (p *Policer) Throttle(bps float64) {
	if bps <= 0 {
		return
	}
	p.active = true
	p.rateBps = bps
	if p.BurstBytes <= 0 {
		p.BurstBytes = bps / 8 // one second of traffic
	}
	p.tokens = p.BurstBytes
	p.lastRefill = p.Sched.Now()
}

// Release deactivates the limit (e.g. a new billing cycle).
//
//tlcvet:allow unreached — §2.1 quota-to-throttle reproduction, which only go test ./internal/epc -run Quota runs
func (p *Policer) Release() { p.active = false }

// Active reports whether the subscriber is currently throttled.
//
//tlcvet:allow unreached — §2.1 quota-to-throttle reproduction, which only go test ./internal/epc -run Quota runs
func (p *Policer) Active() bool { return p.active }

// Recv implements netem.Node.
//
//tlcvet:allow unreached — §2.1 quota-to-throttle reproduction, which only go test ./internal/epc -run Quota runs
func (p *Policer) Recv(pkt *netem.Packet) {
	if !p.active || pkt.Background {
		if p.Next != nil {
			p.Next.Recv(pkt)
		}
		return
	}
	now := p.Sched.Now()
	elapsed := now - p.lastRefill
	if elapsed > 0 {
		p.tokens += p.rateBps / 8 * float64(elapsed) / float64(time.Second)
		if p.tokens > p.BurstBytes {
			p.tokens = p.BurstBytes
		}
		p.lastRefill = now
	}
	if float64(pkt.Size) > p.tokens {
		p.Dropped++
		p.DroppedBytes += uint64(pkt.Size)
		return
	}
	p.tokens -= float64(pkt.Size)
	if p.Next != nil {
		p.Next.Recv(pkt)
	}
}
