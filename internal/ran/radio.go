package ran

import (
	"time"

	"tlc/internal/sim"
)

// RadioState is the attachment state of the device as seen by the
// network.
type RadioState int

const (
	// Attached: the device has a registered session; the gateway
	// meters (and the operator charges) its traffic.
	Attached RadioState = iota
	// Detached: the network detected a persistent radio link failure
	// and released the session. Traffic is neither delivered nor
	// charged until re-attach (§3.2: "the network can detect it via
	// radio link failures, detach the device and prevent larger
	// gap. Our LTE core takes 5s on average for this.").
	Detached
)

// Radio tracks coverage and attachment for one device. It polls the
// RSS process, gates the air-interface links while the device is out
// of coverage or detached, and drives detach/attach transitions with
// the paper's ~5s radio-link-failure timer.
type Radio struct {
	Sched *sim.Scheduler
	Model RSSModel

	// DetachAfter is how long a continuous out-of-coverage condition
	// persists before the core detaches the device. Paper: 5s.
	DetachAfter time.Duration
	// AttachDelay is the re-attach signalling time once coverage
	// returns after a detach.
	AttachDelay time.Duration
	// PollInterval is the coverage sampling period.
	PollInterval time.Duration

	// OnDetach and OnAttach fire on state transitions; the EPC's MME
	// subscribes to stop/resume gateway metering.
	OnDetach func(now sim.Time)
	OnAttach func(now sim.Time)

	state        RadioState
	outageSince  sim.Time // valid when inOutage
	inOutage     bool
	attachingAt  sim.Time // when a pending re-attach completes
	attachPend   bool
	outOfService time.Duration // cumulative no-service time
	lastPoll     sim.Time

	started bool
}

// NewRadio returns a radio with the paper's default timers.
func NewRadio(sched *sim.Scheduler, model RSSModel) *Radio {
	return &Radio{
		Sched:        sched,
		Model:        model,
		DetachAfter:  5 * time.Second,
		AttachDelay:  200 * time.Millisecond,
		PollInterval: 50 * time.Millisecond,
		state:        Attached,
	}
}

// Start begins coverage polling. It must be called before the
// simulation runs.
func (r *Radio) Start() {
	if r.started {
		return
	}
	r.started = true
	r.Sched.Ticker(0, r.PollInterval, r.poll)
}

func (r *Radio) poll(now sim.Time) {
	covered := r.Model.RSS(now) > NoServiceRSS
	if !covered {
		r.outOfService += r.PollInterval
		if !r.inOutage {
			r.inOutage = true
			r.outageSince = now
		}
		if r.state == Attached && now-r.outageSince >= r.DetachAfter {
			r.state = Detached
			r.attachPend = false
			if r.OnDetach != nil {
				r.OnDetach(now)
			}
		}
		return
	}
	// In coverage.
	r.inOutage = false
	if r.state == Detached {
		if !r.attachPend {
			r.attachPend = true
			r.attachingAt = now + r.AttachDelay
		}
		if now >= r.attachingAt {
			r.state = Attached
			r.attachPend = false
			if r.OnAttach != nil {
				r.OnAttach(now)
			}
		} else {
			r.outOfService += r.PollInterval
		}
	}
	r.lastPoll = now
}

// InCoverage reports whether the instantaneous RSS allows service.
func (r *Radio) InCoverage(now sim.Time) bool {
	return r.Model.RSS(now) > NoServiceRSS
}

// Available reports whether data can flow right now: attached and in
// coverage. Air-interface link gates call this.
func (r *Radio) Available(now sim.Time) bool {
	return r.state == Attached && r.InCoverage(now)
}

// OutOfServiceTime returns the cumulative duration without service,
// the numerator of the paper's intermittent disconnectivity ratio η.
func (r *Radio) OutOfServiceTime() time.Duration { return r.outOfService }
